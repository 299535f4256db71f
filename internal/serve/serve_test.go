package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/wsn"
)

// Plan executes the request's algorithm on its topology, without any
// pool, cache or scratch reuse — the one-shot reference path. The
// worker-pool path (Server.Submit) must return byte-identical encodings
// of the same response; TestServeDeterminism pins that.
func Plan(req *PlanRequest) (*PlanResponse, error) {
	resp, _, err := planInto(req, nil)
	return resp, err
}

// testNetwork generates a deterministic paper-style topology.
func testNetwork(t testing.TB, n, q int, seed uint64) *wsn.Network {
	t.Helper()
	net, err := wsn.Generate(rng.New(seed), wsn.GenConfig{
		N: n, Q: q, Dist: wsn.LinearDist{TauMin: 1, TauMax: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// permuted returns net with sensors rotated by k and IDs reassigned to
// match their new positions — a different network (order-sensitive)
// with the same topology multiset, hence the same Fingerprint.
func permuted(net *wsn.Network, k int) *wsn.Network {
	n := len(net.Sensors)
	out := &wsn.Network{Field: net.Field, Base: net.Base, Depots: net.Depots}
	out.Sensors = make([]wsn.Sensor, n)
	for i := range out.Sensors {
		s := net.Sensors[(i+k)%n]
		s.ID = i
		out.Sensors[i] = s
	}
	return out
}

// TestServeDeterminism is the serving determinism contract: N
// concurrent Submits through the pool — cache on and off, coalescing
// and all — return responses byte-identical to the serial one-shot
// Plan path, for every served algorithm family. Run under -race this
// also exercises the pool/cache/coalescing synchronization.
func TestServeDeterminism(t *testing.T) {
	algos := []string{
		experiment.AlgoMTD,
		experiment.AlgoMTDRefined,
		experiment.AlgoQRootedApprox,
		experiment.AlgoQRootedRefined,
	}
	nets := []*wsn.Network{
		testNetwork(t, 30, 3, 1),
		testNetwork(t, 45, 4, 2),
	}
	type job struct {
		req  *PlanRequest
		want []byte
	}
	var jobs []job
	for _, net := range nets {
		for _, algo := range algos {
			req := NewRequest(net, algo, 100)
			resp, err := Plan(req)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			want, err := resp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{req, want})
		}
	}

	for _, cacheSize := range []int{-1, 64} {
		srv := New(Config{Workers: 4, QueueDepth: 256, CacheSize: cacheSize})
		var wg sync.WaitGroup
		for rep := 0; rep < 4; rep++ {
			for _, j := range jobs {
				wg.Add(1)
				go func(j job) {
					defer wg.Done()
					res, err := srv.Submit(context.Background(), j.req)
					if err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					if !bytes.Equal(res.Body, j.want) {
						t.Errorf("cache=%d: concurrent body differs from serial Plan", cacheSize)
					}
				}(j)
			}
		}
		wg.Wait()
		srv.Close()
	}
}

// TestSubmitCachesAndCoalesces checks the second identical request is a
// cache hit with the same bytes, and that concurrent identical requests
// coalesce onto one planning call.
func TestSubmitCachesAndCoalesces(t *testing.T) {
	req := NewRequest(testNetwork(t, 20, 2, 7), experiment.AlgoMTD, 50)

	srv := New(Config{Workers: 1})
	defer srv.Close()
	first, err := srv.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first request must not be a cache hit")
	}
	second, err := srv.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || !bytes.Equal(first.Body, second.Body) {
		t.Error("second identical request must hit the cache with identical bytes")
	}
	if h, m := srv.Metrics().CacheHits.Value(), srv.Metrics().CacheMisses.Value(); h != 1 || m != 1 {
		t.Errorf("cache counters = %d hits / %d misses, want 1/1", h, m)
	}

	// Coalescing: with the single worker blocked, identical requests
	// must join one computation.
	var calls atomic.Int64
	release := make(chan struct{})
	blocked := New(Config{Workers: 1, QueueDepth: 8, CacheSize: -1,
		planFn: func(r *PlanRequest, ws *experiment.Scratch) ([]byte, planStats, error) {
			calls.Add(1)
			<-release
			return []byte("plan\n"), planStats{}, nil
		}})
	defer blocked.Close()

	const waiters = 6
	var wg sync.WaitGroup
	bodies := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := blocked.Submit(context.Background(), req)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			bodies[i] = res.Body
		}(i)
	}
	// Wait until the worker picked up the first request, then give the
	// rest time to join it before releasing.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for int(blocked.Metrics().Coalesced.Value()) < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("planFn ran %d times for %d identical concurrent requests, want 1", got, waiters)
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], []byte("plan\n")) {
			t.Errorf("waiter %d got body %q", i, bodies[i])
		}
	}
}

// TestSubmitShedsWhenFull pins the backpressure contract: with the
// worker and every queue slot occupied, a further request is rejected
// with ErrOverloaded and counted as shed.
func TestSubmitShedsWhenFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	srv := New(Config{Workers: 1, QueueDepth: 1, CacheSize: -1,
		planFn: func(r *PlanRequest, ws *experiment.Scratch) ([]byte, planStats, error) {
			started <- struct{}{}
			<-release
			return []byte("ok\n"), planStats{}, nil
		}})
	defer srv.Close()
	defer close(release)

	net := testNetwork(t, 10, 2, 3)
	// Distinct T values make distinct keys, so nothing coalesces.
	submit := func(i int) (chan Result, chan error) {
		resCh, errCh := make(chan Result, 1), make(chan error, 1)
		go func() {
			res, err := srv.Submit(context.Background(), NewRequest(net, experiment.AlgoMTD, float64(50+i)))
			resCh <- res
			errCh <- err
		}()
		return resCh, errCh
	}
	submit(0)
	<-started // worker busy
	submit(1)
	// The queued job occupies the single slot; wait for it to land.
	for srv.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	_, err := srv.Submit(context.Background(), NewRequest(net, experiment.AlgoMTD, 99))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: got %v, want ErrOverloaded", err)
	}
	if n := srv.Metrics().Requests.Value(OutcomeShed); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
}

// TestCancelReleasesWorker pins the cancellation contract: a queued
// request whose every participant gave up is discarded without
// planning, so the worker is free for the next request.
func TestCancelReleasesWorker(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{}, 16)
	started := make(chan struct{}, 16)
	srv := New(Config{Workers: 1, QueueDepth: 4, CacheSize: -1,
		planFn: func(r *PlanRequest, ws *experiment.Scratch) ([]byte, planStats, error) {
			calls.Add(1)
			started <- struct{}{}
			<-release
			return []byte("ok\n"), planStats{}, nil
		}})
	defer srv.Close()

	net := testNetwork(t, 10, 2, 5)
	// A occupies the worker.
	doneA := make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), NewRequest(net, experiment.AlgoMTD, 50))
		doneA <- err
	}()
	<-started

	// B queues behind A, then its caller gives up.
	ctxB, cancelB := context.WithCancel(context.Background())
	doneB := make(chan error, 1)
	go func() {
		_, err := srv.Submit(ctxB, NewRequest(net, experiment.AlgoMTD, 60))
		doneB <- err
	}()
	for srv.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancelB()
	if err := <-doneB; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit returned %v, want context.Canceled", err)
	}
	if n := srv.Metrics().Requests.Value(OutcomeCanceled); n != 1 {
		t.Errorf("canceled counter = %d, want 1", n)
	}

	// Unblock A; the worker must skip B without planning it and then
	// serve C.
	release <- struct{}{}
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	if _, err := srv.Submit(context.Background(), NewRequest(net, experiment.AlgoMTD, 70)); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("planFn ran %d times, want 2 (the canceled request must never be planned)", got)
	}
}

// TestPlanCacheGuard pins the LRU behaviour and the Equal guard: a
// permuted topology shares the multiset fingerprint (same key) but must
// miss, never be served the other ordering's plan.
func TestPlanCacheGuard(t *testing.T) {
	net := testNetwork(t, 12, 2, 11)
	perm := permuted(net, 5)
	if wsn.Fingerprint(net) != wsn.Fingerprint(perm) {
		t.Fatal("permuted topology must share the fingerprint (test setup)")
	}
	c := newPlanCache(2)
	keyN := keyFor(NewRequest(net, experiment.AlgoMTD, 50))
	keyP := keyFor(NewRequest(perm, experiment.AlgoMTD, 50))
	if keyN != keyP {
		t.Fatal("permuted topology must share the cache key (test setup)")
	}
	c.put(keyN, net, []byte("net\n"))
	if _, ok := c.get(keyP, perm); ok {
		t.Error("permuted topology must not be served the original's plan")
	}
	if body, ok := c.get(keyN, net); !ok || !bytes.Equal(body, []byte("net\n")) {
		t.Error("original topology must still hit")
	}

	// LRU: capacity 2, touch a then insert c — b is the eviction victim.
	a := keyN
	b, cc := a, a
	b.t, cc.t = 60, 70
	c.put(b, net, []byte("b\n"))  // cache: [b a]
	c.get(a, net)                 // cache: [a b]
	c.put(cc, net, []byte("c\n")) // cache: [c a], b evicted
	if _, ok := c.get(b, net); ok {
		t.Error("least recently used entry must be evicted")
	}
	if _, ok := c.get(a, net); !ok {
		t.Error("recently used entry must survive eviction")
	}
	if got := c.len(); got != 2 {
		t.Errorf("cache length = %d, want 2", got)
	}
}

// TestSubmitAfterClose pins the lifecycle error.
func TestSubmitAfterClose(t *testing.T) {
	srv := New(Config{Workers: 1})
	srv.Close()
	req := NewRequest(testNetwork(t, 10, 2, 13), experiment.AlgoMTD, 50)
	if _, err := srv.Submit(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrClosed", err)
	}
}

// TestRequestRoundTrip checks NewRequest → Marshal → ParseRequest
// reproduces a bit-identical topology (the loadgen cache workload
// depends on this).
func TestRequestRoundTrip(t *testing.T) {
	net := testNetwork(t, 25, 3, 17)
	req := NewRequest(net, experiment.AlgoMTD, 80)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Network().Equal(net) {
		t.Error("round-tripped topology differs bit-for-bit from the original")
	}
	if back.Fingerprint() != req.Fingerprint() {
		t.Error("round-tripped fingerprint differs")
	}
}
