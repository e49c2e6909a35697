package lint

import "strings"

// All returns the full analyzer suite in registration order. The driver,
// the fixture meta-test, and the directive validator all consume this one
// registry, so adding an analyzer here is the single step that wires it
// into `sgmrlint` runs and the "every analyzer has fixtures" check.
func All() []*Analyzer {
	return []*Analyzer{PlanMutate, DetEnc, CtxHygiene, SinkStop, FailCover, ErrWrap, HotAlloc}
}

// byName resolves an analyzer by its directive name, or nil.
func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// knownNames lists the registered analyzer names for error messages.
func knownNames() string {
	names := make([]string, 0, 4)
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
