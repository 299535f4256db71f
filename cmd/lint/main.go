// Command lint runs the repo-specific static-analysis suite of
// internal/lint: determinism guards (walltime, globalrand, floateq,
// maporder), the Dense-fast-path guard (hotdist), the concurrency
// guards (goroleak, lockheld, atomicmix, ctxflow) and the
// allocation-discipline guard (hotalloc).
//
// Usage:
//
//	go run ./cmd/lint [-tags tag,tag] [-list] [packages ...]
//
// Packages default to ./... relative to the module root (found by
// walking up from the working directory). Findings print as
// file:line:col: check: message, one per line; the exit status is 1 when
// there are findings, 2 on load/usage errors, 0 otherwise. Intentional
// sites are annotated in the source with //lint:allow <check> <reason>;
// whole-package exemptions (the serving layer's walltime grant) live in
// lint.DefaultPolicy. There is no baseline of tolerated findings: any
// finding fails.
//
// The "checks" build tag is on by default so the real runtime-invariant
// implementations of internal/check are linted rather than their no-op
// stubs; pass -tags "" for a default-build view.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	tags := flag.String("tags", "checks", "comma-separated build tags to lint under")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lint [-tags tag,tag] [-list] [packages ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	var tagList []string
	for _, t := range strings.Split(*tags, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tagList = append(tagList, t)
		}
	}
	loader, err := lint.NewLoader(root, tagList)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	findings := lint.RunWithPolicy(pkgs, analyzers, lint.DefaultPolicy())
	for _, f := range findings {
		// Report paths relative to the module root for stable output.
		pos := f.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, f.Check, f.Msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lint:", err)
	os.Exit(2)
}
