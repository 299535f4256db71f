package check

import (
	"strings"
	"testing"
)

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("error containing %q, got nil", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestTour(t *testing.T) {
	if err := Tour(5, 4, []int{0, 2, 1}); err != nil {
		t.Errorf("valid tour rejected: %v", err)
	}
	if err := Tour(5, 4, nil); err != nil {
		t.Errorf("empty tour rejected: %v", err)
	}
	wantErr(t, Tour(5, 5, nil), "depot 5 out of range")
	wantErr(t, Tour(5, 4, []int{5}), "out of range")
	wantErr(t, Tour(5, 4, []int{4}), "revisits its own depot")
	wantErr(t, Tour(5, 4, []int{1, 1}), "twice")
}
