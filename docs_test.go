package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryExportedIdentifierIsDocumented walks the whole module and
// fails on any exported type, function, method, or package-level
// variable/constant without a doc comment — the documentation
// deliverable, enforced.
func TestEveryExportedIdentifierIsDocumented(t *testing.T) {
	var missing []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "results" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					missing = append(missing, path+": func "+dd.Name.Name)
				}
			case *ast.GenDecl:
				groupDocumented := dd.Doc != nil
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDocumented && sp.Doc == nil && sp.Comment == nil {
							missing = append(missing, path+": type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && !groupDocumented && sp.Doc == nil && sp.Comment == nil {
								missing = append(missing, path+": value "+n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Errorf("undocumented exported identifier: %s", m)
	}
}

// TestEveryPackageHasDocComment checks each package has a package-level
// doc comment somewhere.
func TestEveryPackageHasDocComment(t *testing.T) {
	documented := map[string]bool{}
	packages := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "results" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		packages[dir] = f.Name.Name
		if f.Doc != nil {
			documented[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, pkg := range packages {
		if !documented[dir] {
			t.Errorf("package %s (%s) has no package doc comment", pkg, dir)
		}
	}
}

// TestCitedArtifactsExist fails when README.md, DESIGN.md, EXPERIMENTS.md
// or a script under scripts/ names a committed benchmark artifact — a
// BENCH_, SERVE_ or ROBUST_ file tagged with seed or a PR number — that
// is not in the tree, so no number in the docs points at a missing
// file. CHANGES.md and ROADMAP.md are history and are not scanned.
func TestCitedArtifactsExist(t *testing.T) {
	artifact := regexp.MustCompile(`(BENCH|SERVE|ROBUST)_(seed|pr[0-9]+)[a-z0-9_]*\.json`)
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	scripts, err := os.ReadDir("scripts")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range scripts {
		if !e.IsDir() {
			files = append(files, filepath.Join("scripts", e.Name()))
		}
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range artifact.FindAllString(string(data), -1) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s cites %s, which is not in the tree", f, name)
			}
		}
	}
}

// TestPackageMapsNameEveryDirectory fails when a directory under
// internal/, cmd/ or examples/ is missing from README's "Architecture"
// map or DESIGN §8 "Layout", so neither map can fall behind the tree.
// A map names a directory as a path (internal/delta) or in a brace
// list (internal/{serve,obs,delta}).
func TestPackageMapsNameEveryDirectory(t *testing.T) {
	maps := []struct{ file, from, to string }{
		{"README.md", "## Architecture\n", "\n#"},
		{"DESIGN.md", "## 8. Layout\n", "\n## "},
	}
	path := regexp.MustCompile(`\b(internal|cmd|examples)/(?:\{([a-z0-9,]+)\}|([a-z0-9]+))`)
	for _, m := range maps {
		data, err := os.ReadFile(m.file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		i := strings.Index(text, m.from)
		if i < 0 {
			t.Fatalf("%s has no %q section", m.file, strings.TrimSpace(m.from))
		}
		section := text[i+len(m.from):]
		if j := strings.Index(section, m.to); j >= 0 {
			section = section[:j]
		}
		named := map[string]bool{}
		for _, g := range path.FindAllStringSubmatch(section, -1) {
			for _, name := range strings.Split(g[2]+g[3], ",") {
				named[g[1]+"/"+name] = true
			}
		}
		for _, root := range []string{"internal", "cmd", "examples"} {
			entries, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.IsDir() && !named[root+"/"+e.Name()] {
					t.Errorf("%s %q does not name %s/%s", m.file, strings.TrimSpace(m.from), root, e.Name())
				}
			}
		}
	}
}
