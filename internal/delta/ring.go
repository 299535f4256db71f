package delta

// OpRing buffers delta batches applied to a live session while a
// background reconciling replan runs on an older snapshot. When the
// replan completes, the logged batches replay onto the fresh State,
// converging it to the live one (same batches, same serial patcher,
// same result — see TestDeltaPatchDeterminism).
//
// The ring never drops batches: reconciliation needs every op between
// the snapshot and the swap, so once full it marks itself overflowed
// and keeps refusing. An overflowed reconciliation is discarded and
// retriggered from a fresh snapshot — correct at any churn rate, merely
// wasteful at churn rates the buffer was sized below.
//
// OpRing is not safe for concurrent use; the session shard serializes
// all access.
type OpRing struct {
	batches    [][]Op
	head, n    int
	overflowed bool
}

// NewOpRing returns a ring holding at most size batches; size must be
// positive.
func NewOpRing(size int) *OpRing {
	if size < 1 {
		size = 1
	}
	return &OpRing{batches: make([][]Op, size)}
}

// Append logs one applied batch. The slice is retained, not copied;
// callers must not reuse it. When the ring is full the batch is NOT
// logged and the ring marks itself overflowed.
func (r *OpRing) Append(batch []Op) {
	if r.n == len(r.batches) {
		r.overflowed = true
		return
	}
	r.batches[(r.head+r.n)%len(r.batches)] = batch
	r.n++
}

// Overflowed reports whether a batch was refused since the last Drain;
// if so the drained log is incomplete and the reconciliation must be
// discarded and retriggered.
func (r *OpRing) Overflowed() bool { return r.overflowed }

// Drain returns the logged batches in append order and resets the ring
// (including the overflow flag).
func (r *OpRing) Drain() [][]Op {
	out := make([][]Op, 0, r.n)
	for i := 0; i < r.n; i++ {
		j := (r.head + i) % len(r.batches)
		out = append(out, r.batches[j])
		r.batches[j] = nil
	}
	r.head, r.n, r.overflowed = 0, 0, false
	return out
}
