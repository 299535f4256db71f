package obs

import "runtime"

// MemGauge is a gauge tracking the process's in-use heap bytes
// (runtime.MemStats.HeapInuse). Unlike the other instruments it is not
// updated by the instrumented code path itself: callers invoke Update
// at natural sampling points — chargerd's workers sample after every
// plan — so the exported level reflects the peak-relevant moments (just
// after planning allocations) without a background poller.
//
// ReadMemStats stops the world for a moment, so Update belongs after
// coarse units of work, not in inner loops.
type MemGauge struct {
	g *Gauge
}

// NewMemGauge registers a heap-in-use gauge under name on reg and
// returns it with an initial sample taken.
func NewMemGauge(reg *Registry, name, help string) *MemGauge {
	m := &MemGauge{g: reg.Gauge(name, help)}
	m.Update()
	return m
}

// Update samples runtime.MemStats and stores HeapInuse.
func (m *MemGauge) Update() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.g.Set(int64(ms.HeapInuse))
}
