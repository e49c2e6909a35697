package cq

import (
	"fmt"

	"subgraphmr/internal/graph"
)

// Evaluator runs one CQ over (fragments of) a data graph, as the reducers
// of Section 4 do. The evaluation is a backtracking multiway join:
// variables are bound in an order where each new variable is adjacent in
// the sample graph to an already-bound one, candidates come from adjacency
// lists, and the arithmetic condition prunes partial assignments and
// filters complete ones.
//
// The fragment is a graph.Ranked, whose local ids are ranks in the node
// order, so every order test is an int32 comparison. Each step first
// folds the order constraints between the new variable and the bound ones
// (the anchor subgoal's orientation, the other subgoals' orientations,
// LessCons) into one open interval of ranks and binary-searches the
// candidate list down to it; only the edge probes remain per candidate.
//
// An Evaluator holds only the compiled join plan and is safe for concurrent
// use; all per-run mutable state lives in a scratch frame allocated once
// per Run (or once per EvaluatorSet.EvaluateAll call and shared across the
// set's CQs).
type Evaluator struct {
	q       *CQ
	plan    []int   // variable binding order
	planPos []int   // position of each variable in plan
	anchor  []int   // for each plan step, an earlier-bound sample-neighbor (-1 if none)
	above   [][]int // bound variables the candidate must rank above, per step
	below   [][]int // bound variables the candidate must rank below, per step
	probes  [][]int // bound sample-neighbors other than the anchor, per step
}

// scratch is the reusable per-run state of an evaluation: the assignment
// under construction (local ids), its global translation, and the
// final-check ordering buffers. One scratch serves any number of
// sequential Run calls over CQs of the same arity.
type scratch struct {
	phi      []int32
	global   []graph.Node
	order    []int
	orderKey []byte
}

func newScratch(p int) *scratch {
	return &scratch{
		phi:      make([]int32, p),
		global:   make([]graph.Node, p),
		order:    make([]int, p),
		orderKey: make([]byte, p),
	}
}

// NewEvaluator builds the join plan for q.
func NewEvaluator(q *CQ) *Evaluator {
	p := q.P
	ev := &Evaluator{q: q, planPos: make([]int, p)}

	adj := make([][]int, p)
	for _, sg := range q.Subgoals {
		adj[sg.Lo] = append(adj[sg.Lo], sg.Hi)
		adj[sg.Hi] = append(adj[sg.Hi], sg.Lo)
	}
	// Greedy connected plan: start at the max-degree variable; repeatedly
	// pick the unbound variable with the most bound neighbors (ties: more
	// sample edges, then lower index). Falls back to any variable for
	// disconnected samples.
	bound := make([]bool, p)
	for len(ev.plan) < p {
		best, bestScore := -1, -1
		for v := 0; v < p; v++ {
			if bound[v] {
				continue
			}
			score := 0
			for _, w := range adj[v] {
				if bound[w] {
					score += p // bound neighbors dominate
				}
			}
			score += len(adj[v])
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		bound[best] = true
		ev.plan = append(ev.plan, best)
	}
	for i, v := range ev.plan {
		ev.planPos[v] = i
	}
	ev.anchor = make([]int, p)
	ev.above = make([][]int, p)
	ev.below = make([][]int, p)
	ev.probes = make([][]int, p)
	for i, v := range ev.plan {
		ev.anchor[i] = -1
		for _, sg := range q.Subgoals {
			var other int
			switch v {
			case sg.Lo:
				other = sg.Hi
			case sg.Hi:
				other = sg.Lo
			default:
				continue
			}
			if ev.planPos[other] >= i {
				continue
			}
			if v == sg.Lo {
				ev.below[i] = append(ev.below[i], other)
			} else {
				ev.above[i] = append(ev.above[i], other)
			}
			if ev.anchor[i] == -1 {
				// Candidates for plan[i] are drawn from the anchor's
				// adjacency list, so this subgoal's edge is present by
				// construction — only its orientation (folded into the
				// rank interval) is open.
				ev.anchor[i] = other
			} else {
				ev.probes[i] = append(ev.probes[i], other)
			}
		}
		for _, c := range q.LessCons {
			if c.A == v && ev.planPos[c.B] < i {
				ev.below[i] = append(ev.below[i], c.B)
			}
			if c.B == v && ev.planPos[c.A] < i {
				ev.above[i] = append(ev.above[i], c.A)
			}
		}
	}
	return ev
}

// Run enumerates every assignment φ (one data node per variable) satisfying
// the CQ over the ranked fragment, under the fragment's node order. It
// calls emit once per match with the assignment twice over: phi holds the
// data-graph nodes and local their local ids in the fragment. Both are
// internal scratch — valid only for the duration of the call, so emit must
// copy what it retains. Run returns the number of candidate extensions
// examined (the evaluator's work, for convertibility metering); candidates
// skipped by the rank interval are counted too, since each of them would
// have failed an order test without being extended.
func (ev *Evaluator) Run(local *graph.Ranked, emit func(phi []graph.Node, local []int32)) int64 {
	return ev.extend(local, newScratch(ev.q.P), 0, emit)
}

func (ev *Evaluator) extend(local *graph.Ranked, sc *scratch, step int, emit func([]graph.Node, []int32)) int64 {
	phi := sc.phi
	if step == len(ev.plan) {
		if ev.finalCheck(sc) {
			for i, u := range phi {
				sc.global[i] = local.Global(u)
			}
			emit(sc.global, phi)
		}
		return 1
	}
	// The open rank interval (lo, hi) the order constraints leave for the
	// new variable.
	n := int32(local.NumNodes())
	lo, hi := int32(-1), n
	for _, x := range ev.above[step] {
		lo = max(lo, phi[x])
	}
	for _, x := range ev.below[step] {
		hi = min(hi, phi[x])
	}
	if a := ev.anchor[step]; a >= 0 {
		row := local.Row(phi[a])
		work := int64(len(row))
		for _, c := range graph.Between(row, lo, hi) {
			work += ev.try(local, sc, step, c, emit)
		}
		return work
	}
	work := int64(n)
	for c := lo + 1; c < hi; c++ {
		work += ev.try(local, sc, step, c, emit)
	}
	return work
}

// try binds the candidate c (already inside the step's rank interval) to
// the step's variable if it is not a bound node and is adjacent to every
// probed one, and extends the assignment. It returns the work below c.
func (ev *Evaluator) try(local *graph.Ranked, sc *scratch, step int, c int32, emit func([]graph.Node, []int32)) int64 {
	phi := sc.phi
	for s := 0; s < step; s++ {
		if phi[ev.plan[s]] == c {
			return 0
		}
	}
	for _, x := range ev.probes[step] {
		if !local.HasEdge(c, phi[x]) {
			return 0
		}
	}
	phi[ev.plan[step]] = c
	return ev.extend(local, sc, step+1, emit)
}

// finalCheck verifies the ordering-mode condition against the complete
// assignment, using the scratch buffers: the variables are insertion-sorted
// by their local ids (ranks) and the resulting order is looked up in the
// CQ's accepted-order set without allocating.
//
//lint:hotpath
func (ev *Evaluator) finalCheck(sc *scratch) bool {
	if ev.q.Orderings == nil {
		return true // constraint mode: everything verified incrementally
	}
	p := ev.q.P
	order := sc.order[:p]
	for i := 0; i < p; i++ {
		order[i] = i
	}
	// Insertion sort: p is tiny (sample arity), and it avoids the
	// sort.Slice closure machinery on the per-match path.
	for i := 1; i < p; i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && sc.phi[v] < sc.phi[order[j]] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	key := sc.orderKey[:p]
	for i, v := range order {
		key[i] = byte(v)
	}
	_, ok := ev.q.orderSet[string(key)] // no-alloc map probe
	return ok
}

// EvaluatorSet is a set of CQ evaluators compiled once and shared by every
// reducer invocation of a job (the per-key compilation of join plans used
// to dominate small-fragment reducers). The set is immutable and safe for
// concurrent use by the engine's reduce workers.
type EvaluatorSet struct {
	p     int
	evals []*Evaluator
}

// NewEvaluatorSet compiles every CQ of the set once. The CQs must share one
// arity (as every CQ set generated for a single sample does) because the
// set's evaluations share one scratch assignment; mixed arities panic.
func NewEvaluatorSet(cqs []*CQ) *EvaluatorSet {
	s := &EvaluatorSet{evals: make([]*Evaluator, len(cqs))}
	for i, q := range cqs {
		if i == 0 {
			s.p = q.P
		} else if q.P != s.p {
			panic(fmt.Sprintf("cq: EvaluatorSet mixes arities %d and %d", s.p, q.P))
		}
		s.evals[i] = NewEvaluator(q)
	}
	return s
}

// Len returns the number of compiled CQs.
func (s *EvaluatorSet) Len() int { return len(s.evals) }

// EvaluateAll runs every compiled CQ over the ranked fragment and emits each
// satisfying assignment once (distinct CQs of a well-formed set never
// produce the same assignment). phi and local are as for Evaluator.Run:
// scratch buffers shared across the whole call — copy them to retain them.
// Returns total evaluator work.
func (s *EvaluatorSet) EvaluateAll(local *graph.Ranked, emit func(phi []graph.Node, local []int32)) int64 {
	sc := newScratch(s.p)
	var work int64
	for _, ev := range s.evals {
		work += ev.extend(local, sc, 0, emit)
	}
	return work
}

// EvaluateAll compiles the CQ set and runs it over the ranked fragment; see
// EvaluatorSet.EvaluateAll for the emit contract. Callers evaluating the
// same set against many fragments (reducers above all) should compile once
// with NewEvaluatorSet and reuse it instead.
func EvaluateAll(cqs []*CQ, local *graph.Ranked, emit func(phi []graph.Node, local []int32)) int64 {
	return NewEvaluatorSet(cqs).EvaluateAll(local, emit)
}
