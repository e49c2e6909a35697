package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// refEvaluator is the straightforward evaluation the ranked one must
// reproduce: the same join plan over the fragment as a graph.Graph with
// global ids, every candidate of the anchor's list tested one by one
// against the node order less and probed with HasEdge. It is the oracle
// for TestRankedMatchesReference.
type refEvaluator struct {
	ev       *Evaluator // the join plan under test
	anchorSG []Subgoal
	checks   [][]Subgoal
	lessCons [][]Pair
}

func newRefEvaluator(q *CQ) *refEvaluator {
	ev := NewEvaluator(q)
	p := q.P
	r := &refEvaluator{ev: ev, anchorSG: make([]Subgoal, p), checks: make([][]Subgoal, p), lessCons: make([][]Pair, p)}
	for i, v := range ev.plan {
		first := true
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
			if first {
				r.anchorSG[i] = sg
				first = false
			} else {
				r.checks[i] = append(r.checks[i], sg)
			}
		}
		for _, c := range q.LessCons {
			if c.A == v && ev.planPos[c.B] < i || c.B == v && ev.planPos[c.A] < i {
				r.lessCons[i] = append(r.lessCons[i], c)
			}
		}
	}
	return r
}

// run evaluates over local, whose anchorless steps range over nodes: the
// ascending list of nodes with an incident edge.
func (r *refEvaluator) run(local *graph.Graph, nodes []graph.Node, less func(u, v graph.Node) bool, emit func([]graph.Node)) int64 {
	return r.extend(local, nodes, less, make([]graph.Node, r.ev.q.P), 0, emit)
}

func (r *refEvaluator) extend(local *graph.Graph, nodes []graph.Node, less func(u, v graph.Node) bool, phi []graph.Node, step int, emit func([]graph.Node)) int64 {
	ev := r.ev
	if step == len(ev.plan) {
		if r.finalCheck(phi, less) {
			emit(phi)
		}
		return 1
	}
	v := ev.plan[step]
	var candidates []graph.Node
	if a := ev.anchor[step]; a >= 0 {
		candidates = local.Neighbors(phi[a])
	} else {
		candidates = nodes
	}
	var work int64
next:
	for _, c := range candidates {
		work++
		for s := 0; s < step; s++ {
			if phi[ev.plan[s]] == c {
				continue next
			}
		}
		phi[v] = c
		if ev.anchor[step] >= 0 {
			sg := r.anchorSG[step]
			if !less(phi[sg.Lo], phi[sg.Hi]) {
				continue
			}
		}
		for _, sg := range r.checks[step] {
			if !less(phi[sg.Lo], phi[sg.Hi]) || !local.HasEdge(phi[sg.Lo], phi[sg.Hi]) {
				continue next
			}
		}
		for _, lc := range r.lessCons[step] {
			if !less(phi[lc.A], phi[lc.B]) {
				continue next
			}
		}
		work += r.extend(local, nodes, less, phi, step+1, emit)
	}
	return work
}

func (r *refEvaluator) finalCheck(phi []graph.Node, less func(u, v graph.Node) bool) bool {
	q := r.ev.q
	if q.Orderings == nil {
		return true
	}
	order := make([]int, q.P)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < q.P; i++ {
		for j := i; j > 0 && less(phi[order[j]], phi[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	key := make([]byte, q.P)
	for i, v := range order {
		key[i] = byte(v)
	}
	_, ok := q.orderSet[string(key)]
	return ok
}

// fragment cuts a reducer-like edge set out of g: a random subset of the
// edges, some listed twice or reversed, plus a self-loop — the shapes a
// shuffled group can hold.
func fragment(g *graph.Graph, rng *rand.Rand) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		if rng.Intn(3) == 0 {
			continue
		}
		out = append(out, e)
		if rng.Intn(8) == 0 {
			out = append(out, graph.Edge{U: e.V, V: e.U})
		}
	}
	if len(out) > 0 {
		out = append(out, graph.Edge{U: out[0].U, V: out[0].U})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// nodeOrder is one total node order in both of its forms: the rank key
// the ranked evaluator consumes and the comparator the reference uses.
type nodeOrder struct {
	name string
	key  func(graph.Node) uint32 // nil: natural order
	less func(u, v graph.Node) bool
}

func testOrders(g *graph.Graph, seed uint64) []nodeOrder {
	rank := g.DegreeRank()
	h := graph.NodeHash{Seed: seed, B: 4}
	return []nodeOrder{
		{"natural", nil, func(u, v graph.Node) bool { return u < v }},
		{"degree-rank", func(u graph.Node) uint32 { return uint32(rank[u]) },
			func(u, v graph.Node) bool { return rank[u] < rank[v] }},
		{"hash-bucket", func(u graph.Node) uint32 { return uint32(h.Bucket(u)) },
			func(u, v graph.Node) bool {
				if bu, bv := h.Bucket(u), h.Bucket(v); bu != bv {
					return bu < bv
				}
				return u < v
			}},
	}
}

// TestRankedMatchesReference: over random fragments, samples and node
// orders, the ranked evaluator emits exactly the reference's multiset of
// global-id assignments and reports exactly its work, CQ by CQ.
func TestRankedMatchesReference(t *testing.T) {
	samples := []*sample.Sample{
		sample.Triangle(), sample.Square(), sample.Lollipop(),
		sample.Complete(4), sample.Cycle(5),
		sample.MustNew(3, [][2]int{{0, 1}}), // disconnected: exercises the anchorless step
	}
	type cqSet struct {
		name string
		cqs  []*CQ
	}
	var sets []cqSet
	for _, s := range samples {
		sets = append(sets, cqSet{s.String(), MergeByOrientation(GenerateForSample(s))})
	}
	sets = append(sets,
		cqSet{"unmerged square", GenerateForSample(sample.Square())},
		cqSet{"constraint-mode path", []*CQ{{P: 3, Names: []string{"A", "B", "C"},
			Subgoals: []Subgoal{{0, 1}, {2, 1}}, LessCons: []Pair{{0, 2}}}}},
	)
	graphs := []*graph.Graph{
		graph.Gnm(24, 90, 1), graph.Gnm(30, 70, 2),
		graph.PowerLaw(40, 6, 2.2, 3), graph.PowerLaw(30, 8, 2.5, 4),
	}
	found := map[string]int{}
	for gi, g := range graphs {
		rng := rand.New(rand.NewSource(int64(gi)))
		for trial := 0; trial < 3; trial++ {
			edges := fragment(g, rng)
			local := graph.FromEdges(g.NumNodes(), edges)
			var nodes []graph.Node
			for u := graph.Node(0); int(u) < local.NumNodes(); u++ {
				if local.Degree(u) > 0 {
					nodes = append(nodes, u)
				}
			}
			for _, o := range testOrders(g, uint64(gi*10+trial)) {
				ranked := graph.RankedFromEdges(edges, o.key)
				for _, set := range sets {
					for qi, q := range set.cqs {
						want := map[string]int{}
						wantWork := newRefEvaluator(q).run(local, nodes, o.less, func(phi []graph.Node) {
							want[fmt.Sprint(phi)]++
						})
						got := map[string]int{}
						gotWork := NewEvaluator(q).Run(ranked, func(phi []graph.Node, local []int32) {
							for i, r := range local {
								if ranked.Global(r) != phi[i] {
									t.Fatalf("local %v does not translate to %v", local, phi)
								}
							}
							got[fmt.Sprint(phi)]++
						})
						found[set.name] += len(want)
						where := fmt.Sprintf("graph %d trial %d, %s order, %s CQ %d", gi, trial, o.name, set.name, qi)
						if gotWork != wantWork {
							t.Errorf("%s: work %d, reference %d", where, gotWork, wantWork)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d distinct assignments, reference %d", where, len(got), len(want))
						}
						for k, n := range want {
							if got[k] != n {
								t.Fatalf("%s: assignment %s emitted %d times, reference %d", where, k, got[k], n)
							}
						}
					}
				}
			}
		}
	}
	for _, set := range sets {
		if found[set.name] == 0 {
			t.Errorf("%s: no assignment found on any fragment; the comparison is vacuous", set.name)
		}
	}
}
