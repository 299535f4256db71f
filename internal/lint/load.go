package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages of one module with the standard library
// alone: module-internal imports are resolved by mapping import paths to
// directories under the module root, everything else goes through the
// go/importer source importer (which reads GOROOT source). This keeps
// cmd/lint free of module deps at the price of re-checking stdlib
// imports per run — a few seconds, fine for a lint pass.
type Loader struct {
	root   string // module root directory (holds go.mod)
	module string // module path from go.mod
	fset   *token.FileSet
	ctx    build.Context
	std    types.Importer
	// base caches import-resolution units (compiled, non-test files
	// only); nil entries mark in-progress checks for cycle detection.
	base map[string]*types.Package
}

// NewLoader returns a Loader for the module rooted at root, building
// with the given extra build tags (e.g. "checks" so the real invariant
// implementations are linted instead of the no-op stubs).
func NewLoader(root string, tags []string) (*Loader, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.BuildTags = append(append([]string(nil), ctx.BuildTags...), tags...)
	return &Loader{
		root:   root,
		module: module,
		fset:   fset,
		ctx:    ctx,
		std:    importer.ForCompiler(fset, "source", nil),
		base:   map[string]*types.Package{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load type-checks the packages matched by the patterns and returns
// their analysis units: each package's compiled plus in-package test
// files as one unit, and any external _test package as a second unit.
// Patterns are "./...", "dir/...", or plain directories relative to the
// module root; "..." expansion skips testdata, vendor and hidden
// directories, but an explicit directory pattern may point anywhere
// under the root (the fixture tests load testdata packages that way).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		units, err := l.analysisUnits(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, units...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// expand resolves patterns to package directories (absolute paths).
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		switch {
		case pat == "...", pat == "./...":
			pat, recursive = ".", true
		case strings.HasSuffix(pat, "/..."):
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.root, pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPath maps a directory under the module root to its import path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	return l.module + "/" + rel, nil
}

// analysisUnits builds the one or two analysis units of a directory.
func (l *Loader) analysisUnits(dir string) ([]*Package, error) {
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	var units []*Package
	main := append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
	u, err := l.checkUnit(path, dir, main)
	if err != nil {
		return nil, err
	}
	units = append(units, u)
	if len(bp.XTestGoFiles) > 0 {
		x, err := l.checkUnit(path+"_test", dir, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		units = append(units, x)
	}
	return units, nil
}

// checkUnit parses and type-checks one file set as import path `path`.
func (l *Loader) checkUnit(path, dir string, names []string) (*Package, error) {
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tp, Info: info}, nil
}

// importPkg resolves an import for type-checking: module-internal paths
// are checked from source under the module root (compiled files only),
// everything else is delegated to the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if p, ok := l.base[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p, nil
	}
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		p, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.base[path] = p
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/"))
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l.base[path] = nil // cycle sentinel
	u, err := l.checkUnit(path, dir, append([]string(nil), bp.GoFiles...))
	if err != nil {
		delete(l.base, path)
		return nil, err
	}
	l.base[path] = u.Types
	return u.Types, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod, for drivers invoked from a subdirectory.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}
