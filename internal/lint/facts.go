package lint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// A FactSet carries analyzer facts across package boundaries. Facts are
// the dataflow layer's currency: an analyzer running on one package
// exports a named, JSON-serializable payload (failcover's site catalog,
// errwrap's wrap-clean function list), and analyzers running on dependent
// packages import it by (package path, fact name).
//
// The driver shares one in-memory FactSet across its whole
// dependency-ordered package list, so an analyzer sees the facts of every
// package analyzed before it — direct and indirect dependencies alike.
// Payloads are stored as JSON so a fact is a value copy: a later pass
// cannot mutate what an earlier one exported.
type FactSet struct {
	// pkgs maps package path -> analyzer name -> fact name -> payload.
	pkgs map[string]map[string]map[string]json.RawMessage
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{pkgs: make(map[string]map[string]map[string]json.RawMessage)}
}

// normalizePkgPath strips the build-variant suffix go list gives test
// packages ("pkg [pkg.test]"): an external test imports its package's test
// variant under that ID, and must still find the facts pkg exported.
func normalizePkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// export records one fact, overwriting any previous value under the same
// (package, analyzer, name) key.
func (fs *FactSet) export(pkgPath, analyzer, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding fact %s/%s for %s: %w", analyzer, name, pkgPath, err)
	}
	pkgPath = normalizePkgPath(pkgPath)
	byAnalyzer := fs.pkgs[pkgPath]
	if byAnalyzer == nil {
		byAnalyzer = make(map[string]map[string]json.RawMessage)
		fs.pkgs[pkgPath] = byAnalyzer
	}
	byName := byAnalyzer[analyzer]
	if byName == nil {
		byName = make(map[string]json.RawMessage)
		byAnalyzer[analyzer] = byName
	}
	byName[name] = data
	return nil
}

// lookup decodes the fact under (pkgPath, analyzer, name) into into,
// reporting whether it was present.
func (fs *FactSet) lookup(pkgPath, analyzer, name string, into any) bool {
	data, ok := fs.pkgs[normalizePkgPath(pkgPath)][analyzer][name]
	if !ok {
		return false
	}
	return json.Unmarshal(data, into) == nil
}

// packages returns the sorted package paths that exported a fact under
// (analyzer, name) — how failcover finds every refs fact in scope without
// knowing the package list up front.
func (fs *FactSet) packages(analyzer, name string) []string {
	var out []string
	for pkg, byAnalyzer := range fs.pkgs {
		if _, ok := byAnalyzer[analyzer][name]; ok {
			out = append(out, pkg)
		}
	}
	sort.Strings(out)
	return out
}
