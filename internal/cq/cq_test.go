package cq

import (
	"fmt"
	"strings"
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

func TestGenerateCounts(t *testing.T) {
	cases := []struct {
		name string
		s    *sample.Sample
		want int // p! / |Aut(S)|
	}{
		{"triangle", sample.Triangle(), 1},
		{"square", sample.Square(), 3},
		{"lollipop", sample.Lollipop(), 12},
		{"C5", sample.Cycle(5), 12},
		{"C6", sample.Cycle(6), 60},
		{"K4", sample.Complete(4), 1},
		{"path3", sample.Path(3), 3},
		{"star4", sample.Star(4), 4},
		{"edge", sample.SingleEdge(), 1},
	}
	for _, c := range cases {
		got := GenerateForSample(c.s)
		if len(got) != c.want {
			t.Errorf("%s: %d CQs, want %d", c.name, len(got), c.want)
		}
	}
}

func TestTriangleSingleCQ(t *testing.T) {
	cqs := GenerateForSample(sample.Triangle())
	if len(cqs) != 1 {
		t.Fatalf("triangle: %d CQs", len(cqs))
	}
	want := "E(X,Y) & E(X,Z) & E(Y,Z) & X<Y & Y<Z"
	if got := cqs[0].String(); got != want {
		t.Errorf("triangle CQ = %q, want %q", got, want)
	}
}

// TestSquareCQs reproduces Example 3.2: exactly three CQs with the paper's
// subgoal orientations.
func TestSquareCQs(t *testing.T) {
	cqs := GenerateForSample(sample.Square())
	if len(cqs) != 3 {
		t.Fatalf("square: %d CQs, want 3", len(cqs))
	}
	var got []string
	for _, q := range cqs {
		var sgs []string
		for _, sg := range q.Subgoals {
			sgs = append(sgs, fmt.Sprintf("E(%s,%s)", q.Names[sg.Lo], q.Names[sg.Hi]))
		}
		got = append(got, strings.Join(sgs, " & "))
	}
	// Example 3.2's three CQs (coset representatives WXYZ, WYXZ, WXZY),
	// with subgoals in this library's sorted-edge order:
	want := map[string]bool{
		"E(W,X) & E(W,Z) & E(X,Y) & E(Y,Z)": true, // W<X<Y<Z
		"E(W,X) & E(W,Z) & E(Y,X) & E(Y,Z)": true, // W<Y<X<Z
		"E(W,X) & E(W,Z) & E(X,Y) & E(Z,Y)": true, // W<X<Z<Y
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected square CQ subgoals %q (have %v)", s, got)
		}
	}
}

// paperLollipopOrders lists the twelve orders of Fig. 5 (all with Y < Z),
// as variable lists from least to greatest; W=0, X=1, Y=2, Z=3.
var paperLollipopOrders = [][]int{
	{0, 1, 2, 3}, // 1.  W<X<Y<Z
	{0, 2, 1, 3}, // 2.  W<Y<X<Z
	{0, 2, 3, 1}, // 3.  W<Y<Z<X
	{1, 0, 2, 3}, // 4.  X<W<Y<Z
	{2, 0, 1, 3}, // 5.  Y<W<X<Z
	{2, 0, 3, 1}, // 6.  Y<W<Z<X
	{1, 2, 0, 3}, // 7.  X<Y<W<Z
	{2, 1, 0, 3}, // 8.  Y<X<W<Z
	{2, 3, 0, 1}, // 9.  Y<Z<W<X
	{1, 2, 3, 0}, // 10. X<Y<Z<W
	{2, 1, 3, 0}, // 11. Y<X<Z<W
	{2, 3, 1, 0}, // 12. Y<Z<X<W
}

// fig5Subgoals lists the relational subgoals of Fig. 5, one row per order.
var fig5Subgoals = []string{
	"E(W,X) & E(X,Y) & E(X,Z) & E(Y,Z)",
	"E(W,X) & E(Y,X) & E(X,Z) & E(Y,Z)",
	"E(W,X) & E(Y,X) & E(Z,X) & E(Y,Z)",
	"E(X,W) & E(X,Y) & E(X,Z) & E(Y,Z)",
	"E(W,X) & E(Y,X) & E(X,Z) & E(Y,Z)",
	"E(W,X) & E(Y,X) & E(Z,X) & E(Y,Z)",
	"E(X,W) & E(X,Y) & E(X,Z) & E(Y,Z)",
	"E(X,W) & E(Y,X) & E(X,Z) & E(Y,Z)",
	"E(W,X) & E(Y,X) & E(Z,X) & E(Y,Z)",
	"E(X,W) & E(X,Y) & E(X,Z) & E(Y,Z)",
	"E(X,W) & E(Y,X) & E(X,Z) & E(Y,Z)",
	"E(X,W) & E(Y,X) & E(Z,X) & E(Y,Z)",
}

func lollipopPaperCQs() []*CQ {
	s := sample.Lollipop()
	var cqs []*CQ
	for _, ord := range paperLollipopOrders {
		cqs = append(cqs, FromOrdering(s, ord))
	}
	return cqs
}

// TestLollipopTwelveCQs reproduces Fig. 5: twelve CQs for the lollipop with
// the exact subgoal orientations of the paper's table.
func TestLollipopTwelveCQs(t *testing.T) {
	cqs := lollipopPaperCQs()
	for i, q := range cqs {
		var sgs []string
		for _, sg := range q.Subgoals {
			sgs = append(sgs, fmt.Sprintf("E(%s,%s)", q.Names[sg.Lo], q.Names[sg.Hi]))
		}
		got := strings.Join(sgs, " & ")
		if got != fig5Subgoals[i] {
			t.Errorf("row %d: subgoals %q, want %q", i+1, got, fig5Subgoals[i])
		}
	}
	// The generated coset representatives are exactly these twelve orders
	// (the lexicographically least member of each coset has Y before Z).
	gen := GenerateForSample(sample.Lollipop())
	if len(gen) != 12 {
		t.Fatalf("generated %d CQs, want 12", len(gen))
	}
	wantOrders := map[string]bool{}
	for _, ord := range paperLollipopOrders {
		wantOrders[fmt.Sprint(ord)] = true
	}
	for _, q := range gen {
		if !wantOrders[fmt.Sprint(q.Orderings[0])] {
			t.Errorf("generated unexpected representative %v", q.Orderings[0])
		}
	}
}

// TestLollipopOrientationGroups reproduces Fig. 6: the twelve CQs group by
// edge orientation into {1}, {2,5}, {3,6,9}, {4,7,10}, {8,11}, {12}.
func TestLollipopOrientationGroups(t *testing.T) {
	groups := OrientationGroups(lollipopPaperCQs())
	want := [][]int{{1}, {2, 5}, {3, 6, 9}, {4, 7, 10}, {8, 11}, {12}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d: %v", len(groups), len(want), groups)
	}
	for i := range want {
		if fmt.Sprint(groups[i]) != fmt.Sprint(want[i]) {
			t.Errorf("group %d = %v, want %v", i, groups[i], want[i])
		}
	}
}

// TestLollipopSixMergedCQs reproduces Fig. 7: merging by orientation yields
// six CQs; the paper's OR-ed arithmetic conditions are recovered.
func TestLollipopSixMergedCQs(t *testing.T) {
	merged := MergeByOrientation(lollipopPaperCQs())
	if len(merged) != 6 {
		t.Fatalf("merged into %d CQs, want 6", len(merged))
	}
	for i, q := range merged {
		if !q.ExactSimplified {
			t.Errorf("merged CQ %d: partial order + disequalities should be exact for the lollipop", i+1)
		}
	}
	// Group {3,6,9} (third merged CQ): condition Y<Z, Z<X, W<X plus W≠Y, W≠Z.
	q3 := merged[2]
	wantLess := map[Pair]bool{{2, 3}: true, {3, 1}: true, {0, 1}: true}
	red := q3.ReducedLess()
	if len(red) != len(wantLess) {
		t.Fatalf("CQ3 reduced constraints = %v", red)
	}
	for _, c := range red {
		if !wantLess[c] {
			t.Errorf("CQ3 unexpected constraint %v<%v", q3.Names[c.A], q3.Names[c.B])
		}
	}
	wantNeq := map[Pair]bool{{0, 2}: true, {0, 3}: true}
	if len(q3.NeqCons) != 2 {
		t.Fatalf("CQ3 neq = %v", q3.NeqCons)
	}
	for _, c := range q3.NeqCons {
		if !wantNeq[c] {
			t.Errorf("CQ3 unexpected disequality %v", c)
		}
	}
	// Group {2,5} (second merged CQ): Y<X & X<Z plus W≠Y (paper), i.e. the
	// only incomparable pairs are (W,Y) — W<X is retained via the partial
	// order since it holds in both orders.
	q2 := merged[1]
	if len(q2.NeqCons) != 1 || q2.NeqCons[0] != (Pair{0, 2}) {
		t.Errorf("CQ2 disequalities = %v, want [W!=Y]", q2.NeqCons)
	}
	// Singleton groups keep a full chain: 3 reduced constraints, no neq.
	q1 := merged[0]
	if len(q1.ReducedLess()) != 3 || len(q1.NeqCons) != 0 {
		t.Errorf("CQ1 should be a total order: %v / %v", q1.ReducedLess(), q1.NeqCons)
	}
}

func TestEdgeUsesLollipop(t *testing.T) {
	merged := MergeByOrientation(lollipopPaperCQs())
	uses := EdgeUses(merged)
	// Fig. 7: W-X, X-Y, X-Z appear in both orientations; Y-Z only as E(Y,Z).
	want := map[[2]int]bool{ // true = bidirectional
		{0, 1}: true,
		{1, 2}: true,
		{1, 3}: true,
		{2, 3}: false,
	}
	if len(uses) != 4 {
		t.Fatalf("uses = %v", uses)
	}
	for _, u := range uses {
		if u.Bidirectional() != want[[2]int{u.I, u.J}] {
			t.Errorf("edge (%d,%d): bidirectional=%v, want %v", u.I, u.J, u.Bidirectional(), want[[2]int{u.I, u.J}])
		}
	}
}

func TestEdgeUsesSquare(t *testing.T) {
	merged := MergeByOrientation(GenerateForSample(sample.Square()))
	uses := EdgeUses(merged)
	// Example 4.2: edges (W,X) and (W,Z) appear in one orientation, the
	// other two in both.
	want := map[[2]int]bool{
		{0, 1}: false,
		{0, 3}: false,
		{1, 2}: true,
		{2, 3}: true,
	}
	for _, u := range uses {
		if u.Bidirectional() != want[[2]int{u.I, u.J}] {
			t.Errorf("edge (%d,%d): bidirectional=%v, want %v", u.I, u.J, u.Bidirectional(), want[[2]int{u.I, u.J}])
		}
		wantCoef := 1.0
		if want[[2]int{u.I, u.J}] {
			wantCoef = 2.0
		}
		if u.Coefficient() != wantCoef {
			t.Errorf("edge (%d,%d): coefficient %v", u.I, u.J, u.Coefficient())
		}
	}
}

// exactlyOnce checks that evaluating the CQ set over all of g, under the
// node order of the rank key (nil: natural order), yields every instance
// of s exactly once, matching the brute-force oracle.
func exactlyOnce(t *testing.T, s *sample.Sample, cqs []*CQ, g *graph.Graph, key func(graph.Node) uint32) {
	t.Helper()
	local := graph.RankedFromEdges(g.Edges(), key)
	seen := map[string]bool{}
	total := 0
	EvaluateAll(cqs, local, func(phi []graph.Node, _ []int32) {
		total++
		if !s.IsInstance(g, phi) {
			t.Fatalf("CQ produced a non-instance %v", phi)
		}
		k := s.Key(phi)
		if seen[k] {
			t.Fatalf("instance %s produced more than once", k)
		}
		seen[k] = true
	})
	want := serial.BruteForce(g, s)
	if total != len(want) {
		t.Fatalf("CQ set produced %d instances, oracle %d", total, len(want))
	}
	for _, phi := range want {
		if !seen[s.Key(phi)] {
			t.Fatalf("missing instance %v", phi)
		}
	}
}

func TestExactlyOnceUnmerged(t *testing.T) {
	for _, s := range []*sample.Sample{
		sample.Triangle(), sample.Square(), sample.Lollipop(), sample.Path(4),
	} {
		g := graph.Gnm(12, 34, 7)
		exactlyOnce(t, s, GenerateForSample(s), g, nil)
	}
}

func TestExactlyOnceMerged(t *testing.T) {
	samples := []*sample.Sample{
		sample.Triangle(),
		sample.Square(),
		sample.Lollipop(),
		sample.Cycle(5),
		sample.Complete(4),
		sample.Star(4),
		sample.Path(4),
	}
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Gnm(12, 34, seed)
		for _, s := range samples {
			exactlyOnce(t, s, MergeByOrientation(GenerateForSample(s)), g, nil)
		}
	}
}

func TestExactlyOnceHashOrder(t *testing.T) {
	// The CQ machinery is valid under any total node order, including the
	// hash-then-id order of Section 2.3.
	g := graph.Gnm(13, 36, 4)
	h := graph.NodeHash{Seed: 11, B: 4}
	bucket := func(u graph.Node) uint32 { return uint32(h.Bucket(u)) }
	for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()} {
		exactlyOnce(t, s, MergeByOrientation(GenerateForSample(s)), g, bucket)
	}
}

func TestAcceptsOrdering(t *testing.T) {
	cqs := GenerateForSample(sample.Triangle())
	q := cqs[0]
	if !q.AcceptsOrdering([]int{0, 1, 2}) {
		t.Error("triangle CQ should accept X<Y<Z")
	}
	if q.AcceptsOrdering([]int{1, 0, 2}) {
		t.Error("triangle CQ should reject Y<X<Z")
	}
}

func TestMergePanicsOnConstraintMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic merging constraint-mode CQs")
		}
	}()
	q := &CQ{P: 3, Subgoals: []Subgoal{{0, 1}}}
	MergeByOrientation([]*CQ{q})
}

func TestEvaluatorDisconnectedSample(t *testing.T) {
	// A sample with an isolated node exercises the all-nodes fallback.
	// Note the fallback only sees nodes incident to local edges, so this
	// is exact only on graphs without zero-degree nodes (the map-reduce
	// layer rejects disconnected samples outright for this reason).
	s := sample.MustNew(3, [][2]int{{0, 1}})
	g := graph.PathGraph(4)
	exactlyOnce(t, s, MergeByOrientation(GenerateForSample(s)), g, nil)
}

func TestEvaluatorWorkCounted(t *testing.T) {
	g := graph.CompleteGraph(6)
	local := graph.RankedFromEdges(g.Edges(), nil)
	q := GenerateForSample(sample.Triangle())[0]
	work := NewEvaluator(q).Run(local, func([]graph.Node, []int32) {})
	if work <= 0 {
		t.Error("evaluator should report positive work")
	}
}
