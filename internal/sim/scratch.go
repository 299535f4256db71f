package sim

import (
	"repro/internal/geom"
	"repro/internal/metric"
	"repro/internal/wsn"
)

// Scratch is the reusable per-run arena for RunDisturbed (and Run):
// every O(n) working array the simulator needs — residuals, engine
// commit state, gap bookkeeping, the event heap, telemetry buffers,
// even the spatial grid above metric.DenseLimit — is carved from here
// instead of the garbage collector. A Monte-Carlo harness that runs
// thousands of replications (cmd/robust) passes one Scratch per worker
// via Disturbed.Scratch and pays the allocations once.
//
// A Scratch may be reused freely across runs of different sizes (all
// buffers grow monotonically) but never concurrently: each goroutine
// needs its own. The zero value is ready to use.
type Scratch struct {
	eng     residEngine
	upTo    []float64
	caps    []float64
	engDead []bool

	residual   []float64
	lastCharge []float64
	rates      []float64 // batch rate-factor buffer

	pts  []geom.Point
	grid *metric.Grid

	activeB []bool // active-depot membership, indexed by space vertex

	pending map[int][]report
	due     []report

	flights []*flight  // reference mode's linear-scan list
	es      eventState // event mode's heap, lists and break cursor

	// arrBlock and flBlock are append-only carve blocks for arrival
	// slices and flight structs; a full block is replaced (never
	// resized) so previously handed-out slices and pointers stay valid
	// for the rest of the run.
	arrBlock []float64
	flBlock  []flight

	safe    []float64 // Redispatch pressure filter: skip horizon per sensor
	keyRate []float64 // predicted rate each horizon was derived with
	stopB   []bool    // grid-insertion membership marks (cleared after use)
	tourOf  []int32   // kept-tour index per marked stop
}

// NewScratch returns an empty arena; identical to new(Scratch).
func NewScratch() *Scratch { return &Scratch{} }

// growF64 resizes *buf to n, reallocating only on growth. Contents are
// unspecified; callers initialize what they use.
func growF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growBool is growF64 for bool slices.
func growBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growI32 is growF64 for int32 slices.
func growI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// arrive carves an n-float arrival slice from the arena. The slice is
// full-capacity-clipped so later carves can never alias it.
func (sc *Scratch) arrive(n int) []float64 {
	if len(sc.arrBlock)+n > cap(sc.arrBlock) {
		size := 4096
		if n > size {
			size = n
		}
		sc.arrBlock = make([]float64, 0, size)
	}
	off := len(sc.arrBlock)
	sc.arrBlock = sc.arrBlock[:off+n]
	return sc.arrBlock[off : off+n : off+n]
}

// newFlight carves one flight struct from the arena.
func (sc *Scratch) newFlight() *flight {
	if len(sc.flBlock) == cap(sc.flBlock) {
		sc.flBlock = make([]flight, 0, 256)
	}
	sc.flBlock = append(sc.flBlock, flight{})
	return &sc.flBlock[len(sc.flBlock)-1]
}

// resetRun truncates the per-run arenas; blocks are kept for reuse.
// Slices handed out in earlier runs become invalid, which is fine: a
// run's flights never outlive RunDisturbed.
func (sc *Scratch) resetRun() {
	sc.arrBlock = sc.arrBlock[:0]
	sc.flBlock = sc.flBlock[:0]
	sc.flights = sc.flights[:0]
}

// resetPending clears (or allocates) the in-flight telemetry map.
func (sc *Scratch) resetPending() map[int][]report {
	if sc.pending == nil {
		sc.pending = make(map[int][]report)
		return sc.pending
	}
	for k := range sc.pending {
		delete(sc.pending, k)
	}
	return sc.pending
}

// buildSpace returns the metric the simulation runs on: the caller's
// prebuilt space if one was passed (grids kept as-is, everything else
// materialized as before), the exact spatial grid above
// metric.DenseLimit (rebuilt in place across runs — the same selection
// core.PlanFixed makes), and the dense matrix below it.
func (sc *Scratch) buildSpace(net *wsn.Network, cfg Config) metric.Space {
	if cfg.Space != nil {
		if _, isGrid := metric.AsGrid(cfg.Space); isGrid {
			return cfg.Space
		}
		return metric.Materialize(cfg.Space)
	}
	sc.pts = net.AppendPoints(sc.pts[:0])
	if len(sc.pts) <= metric.DenseLimit {
		return metric.Materialize(metric.NewEuclidean(sc.pts))
	}
	if sc.grid == nil {
		sc.grid = metric.NewGrid(sc.pts)
	} else {
		sc.grid.Rebuild(sc.pts)
	}
	return sc.grid
}
