// Package lint implements sgmrlint's project-specific analyzers and the
// minimal go/analysis-style framework they run on.
//
// The framework is stdlib-only on purpose: the module has no third-party
// dependencies, and the tool that mechanizes the engine's invariants must
// not be the thing that introduces one. The subset mirrors
// golang.org/x/tools/go/analysis closely enough (Analyzer/Pass/Reportf,
// analysistest-style fixtures under testdata/src) that the analyzers could
// be ported to the real framework nearly verbatim if the dependency ever
// lands. The driver in internal/lint/driver loads packages and their test
// variants through `go list` and runs every analyzer over them, as
// `go vet` would run a unitchecker-based tool.
//
// Every analyzer supports the escape hatch
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or on its own line immediately above; the
// reason is mandatory (a bare directive is itself a diagnostic). The
// directives double as the project's audit trail: each one documents why a
// locally suspicious construct is sound.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. It is the stdlib-only
// counterpart of analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is the one-paragraph rule statement shown by `sgmrlint help`.
	Doc string
	// Run reports diagnostics for one type-checked package via
	// Pass.Reportf.
	Run func(*Pass) error
}

// A Unit is one loaded, type-checked package — the input the driver and
// the fixture harness hand to Run.
type Unit struct {
	// Path is the package's import path; a test variant is checked under
	// its package's own path, as go vet checks it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Pass carries one analyzer's view of a Unit, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts  *FactSet
	report func(Diagnostic)
}

// ExportFact publishes a JSON-serializable fact under this package and
// analyzer. Passes running later — on this unit or on any unit that
// (transitively) imports this package — can read it back with ImportFact.
func (p *Pass) ExportFact(name string, v any) error {
	return p.facts.export(p.Path, p.Analyzer.Name, name, v)
}

// ImportFact decodes the fact this analyzer exported for pkgPath into
// into, reporting whether it exists. Visibility is transitive: the driver
// shares one FactSet across all units, dependencies first (see FactSet).
func (p *Pass) ImportFact(pkgPath, name string, into any) bool {
	return p.facts.lookup(pkgPath, p.Analyzer.Name, name, into)
}

// FactPackages returns the package paths that exported this analyzer's
// fact name, in sorted order.
func (p *Pass) FactPackages(name string) []string {
	return p.facts.packages(p.Analyzer.Name, name)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Filename returns the name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return p.Fset.Position(pos).Filename
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
// Suppressed marks findings a //lint:allow directive covered — kept in
// RunFacts output (machine consumers want the audit trail) but excluded
// from exit codes and text rendering.
type Diagnostic struct {
	Pos        token.Pos
	Analyzer   string
	Message    string
	Suppressed bool
}

// Run executes the analyzers over one unit with a throwaway fact set and
// returns only the unsuppressed findings — the shape the fixture harness
// and single-package callers want. Cross-package analyses need RunFacts.
func Run(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunFacts(u, analyzers, NewFactSet())
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// RunFacts executes the analyzers over one unit against a shared fact set,
// applies the //lint:allow suppressions (marking, not dropping), folds in
// directive-hygiene diagnostics (malformed, unknown-analyzer, or stale
// directives), and returns the findings in position order. An analyzer
// returning an error aborts the run — analyzer bugs must fail loudly, not
// silently drop findings.
func RunFacts(u *Unit, analyzers []*Analyzer, facts *FactSet) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactSet()
	}
	dirs := collectDirectives(u)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Path:      u.Path,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			facts:     facts,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	dirs.mark(u.Fset, diags)
	diags = append(diags, dirs.problems...)
	diags = append(diags, dirs.stale(analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := u.Fset.Position(diags[i].Pos), u.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}
