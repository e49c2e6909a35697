package driver

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"subgraphmr/internal/lint"
)

// A Finding is one rendered diagnostic in machine-consumable shape — what
// `sgmrlint -json` emits and what the driver hands cmd/sgmrlint.
type Finding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// String renders the finding as file:line:col: message (analyzer).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// finding converts one diagnostic.
func finding(fset *token.FileSet, d lint.Diagnostic) Finding {
	pos := fset.Position(d.Pos)
	return Finding{
		File:       pos.Filename,
		Line:       pos.Line,
		Col:        pos.Column,
		Analyzer:   d.Analyzer,
		Message:    d.Message,
		Suppressed: d.Suppressed,
	}
}

// Standalone loads the packages matching patterns (relative to dir) and
// their test variants, type-checks each from source, and runs the full
// analyzer suite, returning findings (suppressed ones included, marked) in
// package order. It is cmd/sgmrlint's only analysis mode (`sgmrlint ./...`)
// and needs only the go toolchain: dependencies come from build-cache
// export data, so it works offline.
//
// Facts flow through one shared FactSet: `go list -deps` emits packages
// in dependency order (dependencies strictly before dependents), so by
// the time a package is analyzed, everything it imports has already
// exported its facts. In-module dependencies outside the match set are
// run facts-only — their diagnostics are dropped — so cross-package
// analyses see the same world whether the user asked for ./... or one
// leaf package.
//
// Test variants come after every plain package. Each is analyzed as go
// vet analyzes it — under its package's own path, with its imports
// resolved through go list's ImportMap — but only its findings in
// _test.go files are kept: its other files are the plain package's,
// already reported. Every plain package stays in the walk even when it
// has a test variant, so its dependents always see its facts.
func Standalone(dir string, patterns ...string) ([]Finding, error) {
	return StandaloneAnalyzers(dir, lint.All(), patterns...)
}

// StandaloneAnalyzers is Standalone with an explicit analyzer set (the
// facts round-trip tests drive single analyzers through the full
// multi-package pipeline).
func StandaloneAnalyzers(dir string, analyzers []*lint.Analyzer, patterns ...string) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, append([]string{"-test"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, exports)
	facts := lint.NewFactSet()
	var findings []Finding
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.DepOnly && p.Module == nil {
			continue
		}
		if p.Name == "main" && p.ForTest == "" && strings.HasSuffix(p.ImportPath, ".test") {
			continue // the synthesized test binary main: generated code only
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		filenames := make([]string, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			filenames = append(filenames, filepath.Join(p.Dir, name))
		}
		unitImp := importerFunc(func(path string) (*types.Package, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			return imp.Import(path)
		})
		path, _, _ := strings.Cut(p.ImportPath, " ") // "p [p.test]" checks as p
		unit, err := TypeCheck(fset, path, filenames, unitImp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		diags, err := lint.RunFacts(unit, analyzers, facts)
		if err != nil {
			return nil, err
		}
		if p.DepOnly {
			continue // facts-only pass: the user did not ask about this package
		}
		for _, d := range diags {
			f := finding(fset, d)
			if p.ForTest != "" && !strings.HasSuffix(f.File, "_test.go") {
				continue
			}
			findings = append(findings, f)
		}
	}
	return findings, nil
}
