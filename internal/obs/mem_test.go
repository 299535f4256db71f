package obs

import (
	"strings"
	"testing"
)

// TestMemGauge checks that the heap gauge registers, samples a
// plausible level at construction and on Update, and renders into the
// text exposition.
func TestMemGauge(t *testing.T) {
	reg := NewRegistry()
	g := NewMemGauge(reg, "test_heap_inuse_bytes", "heap bytes in use")
	if g.g.Value() <= 0 {
		t.Fatalf("initial heap sample %d, want > 0", g.g.Value())
	}
	// Allocate something visible and resample; the level must stay
	// positive (the runtime may or may not grow, so no tighter claim).
	sink := make([]byte, 1<<20)
	g.Update()
	if g.g.Value() <= 0 {
		t.Fatalf("heap sample after alloc %d, want > 0", g.g.Value())
	}
	_ = sink[0]

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE test_heap_inuse_bytes gauge") ||
		!strings.Contains(out, "test_heap_inuse_bytes ") {
		t.Fatalf("exposition missing the heap gauge:\n%s", out)
	}
}
