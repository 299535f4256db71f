package serve

import "repro/internal/obs"

// Request outcomes, the label values of chargerd_requests_total.
const (
	// OutcomeOK is a served plan (fresh, cached, or coalesced).
	OutcomeOK = "ok"
	// OutcomeShed is a request rejected by queue backpressure.
	OutcomeShed = "shed"
	// OutcomeTimeout is a request whose deadline expired before its
	// plan completed.
	OutcomeTimeout = "timeout"
	// OutcomeCanceled is a request whose caller went away.
	OutcomeCanceled = "canceled"
	// OutcomeError is a planning failure or a malformed request.
	OutcomeError = "error"
)

// Session replan reasons, the label values of
// chargerd_session_replans_total.
const (
	// ReplanDrift is a reconciling replan triggered by the cost-drift
	// ratio crossing the session budget.
	ReplanDrift = "drift"
	// ReplanStructural is an inline replan forced by a delta no patch
	// can absorb (a cycle below the base period τ_1).
	ReplanStructural = "structural"
	// ReplanOverflow is a background replan discarded because the
	// session's delta log overflowed while it ran; it is retriggered
	// from a fresh snapshot.
	ReplanOverflow = "overflow"
	// ReplanError is a replan (or its replay) that failed.
	ReplanError = "error"
)

// Metrics bundles the serving layer's instruments over one
// obs.Registry. Metric names and units are documented in DESIGN.md §11.
type Metrics struct {
	reg *obs.Registry
	// Requests counts finished requests by outcome
	// (chargerd_requests_total{outcome=...}).
	Requests *obs.CounterVec
	// QueueDepth is the number of jobs waiting for a worker
	// (chargerd_queue_depth).
	QueueDepth *obs.Gauge
	// CacheHits and CacheMisses count plan-cache lookups
	// (chargerd_cache_{hits,misses}_total).
	CacheHits   *obs.Counter
	CacheMisses *obs.Counter
	// Coalesced counts requests served by joining an identical
	// in-flight computation (chargerd_coalesced_total).
	Coalesced *obs.Counter
	// RequestLatency is end-to-end POST /plan latency in seconds,
	// queueing included (chargerd_request_seconds).
	RequestLatency *obs.Histogram
	// PlanLatency is the worker's wall time per plan in seconds
	// (chargerd_plan_seconds), and RefineLatency the 2-opt/Or-opt
	// refinement inside it (chargerd_plan_refine_seconds), from the
	// planners' RefineNs accounting.
	PlanLatency   *obs.Histogram
	RefineLatency *obs.Histogram
	// HeapBytes is the in-use heap sampled after each plan
	// (chargerd_heap_inuse_bytes) — the gauge the large-n memory
	// guarantee (peak well below O(n²); DESIGN.md §12) is monitored by.
	HeapBytes *obs.MemGauge
	// SessionsActive is the number of live tenant sessions
	// (chargerd_sessions_active).
	SessionsActive *obs.Gauge
	// SessionsEvicted counts sessions dropped by LRU pressure or delete
	// (chargerd_sessions_evicted_total).
	SessionsEvicted *obs.Counter
	// Deltas counts finished delta batches by outcome
	// (chargerd_deltas_total{outcome=...}).
	Deltas *obs.CounterVec
	// DeltaOps counts individual applied delta operations
	// (chargerd_delta_ops_total).
	DeltaOps *obs.Counter
	// DeltaLatency is end-to-end POST /session/{id}/delta latency in
	// seconds (chargerd_delta_seconds). Patches complete in the tens of
	// microseconds, so the buckets are obs.FastLatencyBuckets, not the
	// request defaults — DefLatencyBuckets would collapse every
	// observation into its first bucket.
	DeltaLatency *obs.Histogram
	// SessionReplans counts session full replans by reason
	// (chargerd_session_replans_total{reason=...}).
	SessionReplans *obs.CounterVec
}

// NewMetrics registers the serving metrics on reg (a nil reg gets a
// fresh registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		reg:         reg,
		Requests:    reg.CounterVec("chargerd_requests_total", "outcome", "finished plan requests by outcome"),
		QueueDepth:  reg.Gauge("chargerd_queue_depth", "plan jobs queued for a worker"),
		CacheHits:   reg.Counter("chargerd_cache_hits_total", "plan cache hits"),
		CacheMisses: reg.Counter("chargerd_cache_misses_total", "plan cache misses"),
		Coalesced:   reg.Counter("chargerd_coalesced_total", "requests joined onto an identical in-flight plan"),
		RequestLatency: reg.Histogram("chargerd_request_seconds",
			"end-to-end request latency in seconds", nil),
		PlanLatency: reg.Histogram("chargerd_plan_seconds",
			"plan duration in seconds", nil),
		RefineLatency: reg.Histogram("chargerd_plan_refine_seconds",
			"refinement time inside a plan in seconds", nil),
		HeapBytes:       obs.NewMemGauge(reg, "chargerd_heap_inuse_bytes", "heap bytes in use, sampled after each plan"),
		SessionsActive:  reg.Gauge("chargerd_sessions_active", "live tenant sessions"),
		SessionsEvicted: reg.Counter("chargerd_sessions_evicted_total", "sessions dropped by LRU pressure or delete"),
		Deltas:          reg.CounterVec("chargerd_deltas_total", "outcome", "finished session delta batches by outcome"),
		DeltaOps:        reg.Counter("chargerd_delta_ops_total", "applied session delta operations"),
		DeltaLatency: reg.Histogram("chargerd_delta_seconds",
			"end-to-end session delta latency in seconds", obs.FastLatencyBuckets),
		SessionReplans: reg.CounterVec("chargerd_session_replans_total", "reason", "session full replans by reason"),
	}
}

// Registry returns the underlying registry (the /metrics payload).
func (m *Metrics) Registry() *obs.Registry { return m.reg }
