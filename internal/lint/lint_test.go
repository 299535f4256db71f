package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Run applies every analyzer to every package it covers, drops
// suppressed findings, and returns the rest sorted by position. It runs
// with no package policy; cmd/lint uses RunWithPolicy and DefaultPolicy.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunWithPolicy(pkgs, analyzers, nil)
}

// TestFixtureFindings loads the seeded testdata packages and requires
// the suite to report exactly the sites marked "// want:<check>" — no
// misses, no extras, and every //lint:allow-annotated line silent.
func TestFixtureFindings(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("internal/lint/testdata/src/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 13 {
		t.Fatalf("loaded %d fixture packages, want at least 13", len(pkgs))
	}

	got := map[string]bool{}
	for _, f := range Run(pkgs, Analyzers()) {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), f.Pos.Line, f.Check)] = true
	}
	want := wantMarkers(t, filepath.Join(root, "internal", "lint", "testdata", "src"), root)
	if len(want) == 0 {
		t.Fatal("no want markers found in testdata — fixture scan is broken")
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing finding %s", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding %s", key)
		}
	}
}

// wantMarkers scans fixture sources for "// want:<check>" comments and
// returns the expected finding keys (root-relative file:line:check).
func wantMarkers(t *testing.T, dir, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, rest, ok := strings.Cut(sc.Text(), "// want:")
			if !ok {
				continue
			}
			check, _, _ := strings.Cut(rest, " ")
			want[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), line, check)] = true
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestApplies(t *testing.T) {
	a := &Analyzer{Scope: []string{"repro/internal/core"}, Exclude: []string{"repro/internal/core/sub"}}
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/core", true},
		{"repro/internal/core/deep", true},
		{"repro/internal/corex", false},                     // prefix must stop at a path boundary
		{"repro/internal/rooted", false},                    // out of scope
		{"repro/internal/core/sub", false},                  // excluded
		{"repro/internal/lint/testdata/src/walltime", true}, // testdata always applies
	}
	for _, c := range cases {
		if got := a.Applies(c.path); got != c.want {
			t.Errorf("Applies(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	unscoped := &Analyzer{}
	if !unscoped.Applies("anything/at/all") {
		t.Error("nil scope must apply everywhere")
	}
}

func TestAllowDirective(t *testing.T) {
	cases := []struct {
		text     string
		check    string
		fileWide bool
		ok       bool
	}{
		{"//lint:allow floateq exactness is the point", "floateq", false, true},
		{"//lint:allow hotdist", "hotdist", false, true},
		{"//lint:file-allow floateq parsed literals", "floateq", true, true},
		{"//lint:allow", "", false, false},          // missing check name
		{"// lint:allow floateq", "", false, false}, // space breaks the directive
		{"// plain comment", "", false, false},
	}
	for _, c := range cases {
		check, fileWide, ok := allowDirective(c.text)
		if check != c.check || fileWide != c.fileWide || ok != c.ok {
			t.Errorf("allowDirective(%q) = (%q, %v, %v), want (%q, %v, %v)",
				c.text, check, fileWide, ok, c.check, c.fileWide, c.ok)
		}
	}
}
