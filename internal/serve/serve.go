// Package serve is the planning-as-a-service layer behind cmd/chargerd:
// a bounded job queue in front of a worker pool, where each worker owns
// a reusable experiment.Scratch arena (dense matrix, candidate lists and
// local-search buffers are rebuilt in place request after request), an
// LRU cache of encoded plans keyed by wsn.Fingerprint, coalescing of
// identical in-flight requests (request batching: N concurrent callers
// asking for the same plan consume one worker), per-request deadlines
// via context cancellation, and load shedding with an explicit
// retry-after rejection when the queue is full.
//
// Determinism carries over from the planners: the pool path returns
// byte-identical responses to the one-shot Plan path regardless of
// worker count, cache state or request interleaving
// (TestServeDeterminism), because responses contain no wall-clock
// fields and every planner is deterministic in its inputs.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// Config sizes a Server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the planning pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; a full queue sheds
	// new requests with ErrOverloaded. 0 means 4×Workers.
	QueueDepth int
	// CacheSize is the plan-cache capacity in entries; 0 means 512,
	// negative disables caching.
	CacheSize int
	// DefaultTimeout is the request deadline the HTTP handler applies
	// when a request names none; 0 means 30s.
	DefaultTimeout time.Duration
	// RetryAfter is the backoff hint returned with shed responses;
	// 0 means 1s.
	RetryAfter time.Duration
	// Registry receives the serving metrics; nil means a fresh one.
	Registry *obs.Registry
	// Sessions sizes the stateful tenant-session layer (the streaming
	// delta API); the zero value gets sensible defaults.
	Sessions SessionConfig

	// planFn overrides the planning function; package tests use it to
	// block or fail deterministically. nil means encodePlan.
	planFn func(*PlanRequest, *experiment.Scratch) ([]byte, planStats, error)
}

// Shedding and lifecycle errors.
var (
	// ErrOverloaded is returned when the job queue is full; the HTTP
	// layer maps it to 503 with a Retry-After header.
	ErrOverloaded = errors.New("serve: queue full, retry later")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("serve: server closed")
)

// Result is a completed plan request.
type Result struct {
	// Body is the canonical JSON response (shared read-only bytes).
	Body []byte
	// CacheHit reports the plan came from the LRU cache.
	CacheHit bool
	// Coalesced reports the request joined an identical in-flight
	// computation instead of consuming a queue slot.
	Coalesced bool
}

// inflight is one plan computation in progress: the initiating request
// plus everyone who joined it. done is closed after body/err are set.
type inflight struct {
	key    cacheKey
	req    *PlanRequest
	active atomic.Int64 // participants still waiting
	done   chan struct{}
	body   []byte
	err    error
}

// Server is the planning service: pool, queue, cache, metrics.
type Server struct {
	workers    int
	queueDepth int
	timeout    time.Duration
	retryAfter time.Duration

	met   *Metrics
	cache *planCache
	jobs  chan *inflight
	wg    sync.WaitGroup

	sessions *Sessions

	mu       sync.Mutex
	inflight map[cacheKey]*inflight
	closed   bool

	start time.Time

	// planFn is the planning seam; tests swap it to block or fail
	// deterministically. Defaults to encodePlan.
	planFn func(*PlanRequest, *experiment.Scratch) ([]byte, planStats, error)
}

// encodePlan is the default planFn: plan into the worker's scratch
// arena and marshal the canonical response bytes.
func encodePlan(req *PlanRequest, ws *experiment.Scratch) ([]byte, planStats, error) {
	resp, st, err := planInto(req, ws)
	if err != nil {
		return nil, st, err
	}
	body, err := resp.Encode()
	return body, st, err
}

// New starts a Server with cfg's pool and queue. Callers must Close it.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	timeout := cfg.DefaultTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	retry := cfg.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	s := &Server{
		workers:    workers,
		queueDepth: depth,
		timeout:    timeout,
		retryAfter: retry,
		met:        NewMetrics(cfg.Registry),
		jobs:       make(chan *inflight, depth),
		inflight:   map[cacheKey]*inflight{},
		start:      time.Now(),
	}
	switch {
	case cfg.CacheSize > 0:
		s.cache = newPlanCache(cfg.CacheSize)
	case cfg.CacheSize == 0:
		s.cache = newPlanCache(512)
	}
	s.planFn = encodePlan
	if cfg.planFn != nil {
		s.planFn = cfg.planFn
	}
	s.sessions = newSessions(cfg.Sessions, s.met, workers)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting work, waits for queued jobs to drain and for
// the workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.jobs)
	s.wg.Wait()
	s.sessions.Close()
}

// Sessions returns the stateful tenant-session layer.
func (s *Server) Sessions() *Sessions { return s.sessions }

// Metrics returns the server's instruments (for handler wiring and
// /metrics exposition).
func (s *Server) Metrics() *Metrics { return s.met }

// Workers returns the pool size.
func (s *Server) Workers() int { return s.workers }

// QueueDepth returns the number of jobs currently waiting.
func (s *Server) QueueDepth() int { return int(s.met.QueueDepth.Value()) }

// DefaultTimeout returns the deadline applied to requests naming none.
func (s *Server) DefaultTimeout() time.Duration { return s.timeout }

// RetryAfter returns the shed-response backoff hint.
func (s *Server) RetryAfter() time.Duration { return s.retryAfter }

// Uptime returns time since New.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// Submit plans one parsed request through the cache, the coalescing
// layer and the worker pool, honouring ctx's deadline while the job is
// queued (a started plan runs to completion and is cached for the next
// caller even if this one gives up). The returned Result.Body is
// byte-identical to a one-shot, scratch-free plan of req followed by
// Encode.
func (s *Server) Submit(ctx context.Context, req *PlanRequest) (Result, error) {
	if err := ctx.Err(); err != nil {
		s.countCtxErr(err)
		return Result{}, err
	}
	key := keyFor(req)
	if s.cache != nil {
		if body, ok := s.cache.get(key, req.Network()); ok {
			s.met.CacheHits.Inc()
			s.met.Requests.With(OutcomeOK).Inc()
			return Result{Body: body, CacheHit: true}, nil
		}
		s.met.CacheMisses.Inc()
	}

	fl, coalesced, err := s.joinOrEnqueue(req, key)
	if err != nil {
		return Result{}, err
	}
	if coalesced {
		s.met.Coalesced.Inc()
	}
	select {
	case <-fl.done:
		if fl.err != nil {
			s.met.Requests.With(OutcomeError).Inc()
			return Result{}, fl.err
		}
		s.met.Requests.With(OutcomeOK).Inc()
		return Result{Body: fl.body, Coalesced: coalesced}, nil
	case <-ctx.Done():
		// Leave the computation to finish for any remaining
		// participants; just deregister ourselves so a fully
		// abandoned queued job releases its worker immediately.
		fl.active.Add(-1)
		err := ctx.Err()
		s.countCtxErr(err)
		return Result{}, err
	}
}

// joinOrEnqueue attaches the request to an identical in-flight
// computation, or enqueues a new one, shedding when the queue is full.
func (s *Server) joinOrEnqueue(req *PlanRequest, key cacheKey) (*inflight, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.Requests.With(OutcomeError).Inc()
		return nil, false, ErrClosed
	}
	if fl, ok := s.inflight[key]; ok && fl.req.Network().Equal(req.Network()) {
		fl.active.Add(1)
		s.mu.Unlock()
		return fl, true, nil
	}
	fl := &inflight{key: key, req: req, done: make(chan struct{})}
	fl.active.Store(1)
	s.inflight[key] = fl
	s.mu.Unlock()

	select {
	case s.jobs <- fl:
		s.met.QueueDepth.Add(1)
		return fl, false, nil
	default:
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		s.met.Requests.With(OutcomeShed).Inc()
		return nil, false, ErrOverloaded
	}
}

// countCtxErr books a context failure under the right outcome.
func (s *Server) countCtxErr(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.met.Requests.With(OutcomeTimeout).Inc()
	} else {
		s.met.Requests.With(OutcomeCanceled).Inc()
	}
}

// worker owns one scratch arena and drains the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	var ws experiment.Scratch
	for fl := range s.jobs {
		s.met.QueueDepth.Add(-1)
		// If every participant abandoned the job while it was queued,
		// release the worker without planning — that is the
		// cancellation contract the contention test pins.
		s.mu.Lock()
		if fl.active.Load() == 0 {
			delete(s.inflight, fl.key)
			s.mu.Unlock()
			fl.err = context.Canceled
			close(fl.done)
			continue
		}
		s.mu.Unlock()

		sp := s.met.Tracer.Start("plan")
		body, st, err := s.planFn(fl.req, &ws)
		sp.Phase("refine", time.Duration(st.refineNs))
		sp.End()
		// Sample heap right after planning, when per-request allocation
		// peaks — the signal the large-n memory guarantee is watched by.
		s.met.HeapBytes.Update()

		if err == nil && s.cache != nil {
			s.cache.put(fl.key, fl.req.Network(), body)
		}
		fl.body, fl.err = body, err
		s.mu.Lock()
		delete(s.inflight, fl.key)
		s.mu.Unlock()
		close(fl.done)
	}
}
