package graph

import (
	"sort"
	"testing"
)

// TestCSRNeighborsSorted: every CSR adjacency list is ascending and matches
// the edge set.
func TestCSRNeighborsSorted(t *testing.T) {
	g := Gnm(200, 1500, 3)
	for u := 0; u < g.NumNodes(); u++ {
		ns := g.Neighbors(Node(u))
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Fatalf("node %d: neighbors not sorted: %v", u, ns)
		}
		for i := 1; i < len(ns); i++ {
			if ns[i] == ns[i-1] {
				t.Fatalf("node %d: duplicate neighbor %d", u, ns[i])
			}
		}
	}
}

// TestHasEdgeMatchesEdgeSet: HasEdge over the CSR layout agrees with the
// explicit edge list on present, absent and self-loop probes.
func TestHasEdgeMatchesEdgeSet(t *testing.T) {
	g := Gnm(60, 300, 9)
	in := map[uint64]bool{}
	for _, e := range g.Edges() {
		in[e.Key()] = true
	}
	for u := Node(0); int(u) < g.NumNodes(); u++ {
		for v := Node(0); int(v) < g.NumNodes(); v++ {
			want := u != v && in[Edge{u, v}.Key()]
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// TestHasEdgeZeroAlloc pins the allocation-free guarantee of the CSR edge
// probe (the reducer verification loops call it millions of times).
func TestHasEdgeZeroAlloc(t *testing.T) {
	g := Gnm(500, 4000, 5)
	edges := g.Edges()
	if allocs := testing.AllocsPerRun(100, func() {
		for _, e := range edges[:64] {
			if !g.HasEdge(e.U, e.V) {
				t.Fatal("edge missing")
			}
			g.HasEdge(e.U, e.V+1)
		}
	}); allocs != 0 {
		t.Fatalf("Graph.HasEdge allocates: %v allocs/run", allocs)
	}
}

// TestCommonNeighbors: the sorted merge agrees with pairwise HasEdge
// across both IntersectSorted regimes (merge and binary-search).
func TestCommonNeighbors(t *testing.T) {
	g := PowerLaw(300, 10, 2.2, 4) // skew exercises the galloping path
	var buf []Node
	for _, e := range g.Edges()[:200] {
		want := []Node{}
		for _, w := range g.Neighbors(e.U) {
			if g.HasEdge(e.V, w) {
				want = append(want, w)
			}
		}
		got := g.CommonNeighbors(e.U, e.V, buf[:0])
		if len(got) != len(want) {
			t.Fatalf("CommonNeighbors(%v): got %v, want %v", e, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CommonNeighbors(%v): got %v, want %v", e, got, want)
			}
		}
		buf = got
	}
}

// TestIntersectSortedAdaptive: both the merge and the binary-search regime
// produce the same ascending intersection.
func TestIntersectSortedAdaptive(t *testing.T) {
	long := make([]Node, 0, 1000)
	for i := 0; i < 1000; i++ {
		long = append(long, Node(2*i))
	}
	short := []Node{-2, 0, 3, 500, 998, 1996, 1999}
	got := IntersectSorted(short, long, nil)
	want := []Node{0, 500, 998, 1996}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Symmetric call hits the same path (arguments are swapped internally).
	got2 := IntersectSorted(long, short, nil)
	for i := range want {
		if len(got2) != len(want) || got2[i] != want[i] {
			t.Fatalf("swapped: got %v, want %v", got2, want)
		}
	}
}

// TestRankedFromEdges: the ranked fragment holds exactly the fragment's
// nodes and edges — reversed and exact duplicates merged, the self-loop
// dropped — relabelled in (key, id) order with ascending rows, on compact
// ids (id-indexed table) and on widely spread, partly negative ids
// (binary-search path), in natural and keyed orders.
func TestRankedFromEdges(t *testing.T) {
	h := NodeHash{Seed: 7, B: 3}
	orders := map[string]func(Node) uint32{
		"natural": nil,
		"bucket":  func(u Node) uint32 { return uint32(h.Bucket(u)) },
	}
	for _, scale := range []Node{1, 1000} {
		var edges []Edge
		adj := map[Node]map[Node]bool{}
		for _, e := range PowerLaw(80, 6, 2.2, 5).Edges() {
			u, v := scale*e.U-40, scale*e.V-40
			edges = append(edges, Edge{u, v}, Edge{v, u})
			for _, d := range [][2]Node{{u, v}, {v, u}} {
				if adj[d[0]] == nil {
					adj[d[0]] = map[Node]bool{}
				}
				adj[d[0]][d[1]] = true
			}
		}
		edges = append(edges, edges[0], Edge{-40, -40})
		for name, key := range orders {
			r := RankedFromEdges(edges, key)
			if r.NumNodes() != len(adj) {
				t.Fatalf("scale %d %s: %d nodes, want %d", scale, name, r.NumNodes(), len(adj))
			}
			keyOf := func(u Node) uint32 {
				if key == nil {
					return 0
				}
				return key(u)
			}
			for a := int32(0); int(a) < r.NumNodes(); a++ {
				u := r.Global(a)
				if r.Key(a) != keyOf(u) {
					t.Fatalf("scale %d %s: Key(%d) = %d, want %d", scale, name, a, r.Key(a), keyOf(u))
				}
				if a > 0 {
					p := r.Global(a - 1)
					if kp, ku := keyOf(p), keyOf(u); kp > ku || kp == ku && p >= u {
						t.Fatalf("scale %d %s: rank %d (%d) does not precede rank %d (%d)", scale, name, a-1, p, a, u)
					}
				}
				row := r.Row(a)
				if len(row) != len(adj[u]) {
					t.Fatalf("scale %d %s: row of %d has %d entries, degree %d", scale, name, u, len(row), len(adj[u]))
				}
				for i, b := range row {
					if i > 0 && row[i-1] >= b {
						t.Fatalf("scale %d %s: row of %d not ascending: %v", scale, name, u, row)
					}
					if !adj[u][r.Global(b)] || !r.HasEdge(a, b) || !r.HasEdge(b, a) {
						t.Fatalf("scale %d %s: edge %d-%d disagrees", scale, name, u, r.Global(b))
					}
				}
				if r.HasEdge(a, a) {
					t.Fatalf("scale %d %s: self-loop at %d", scale, name, u)
				}
			}
		}
	}
	if r := RankedFromEdges(nil, nil); r.NumNodes() != 0 {
		t.Fatalf("empty fragment has %d nodes", r.NumNodes())
	}
}

// TestRankedSmallFragment pins a hand-checked fragment exactly: reversed
// and repeated edges merge, a node with only a self-loop is absent, and
// the local ids, keys and rows are the expected ones in natural and keyed
// orders.
func TestRankedSmallFragment(t *testing.T) {
	edges := []Edge{{1, 2}, {2, 1}, {1, 2}, {3, 3}, {2, 5}, {5, -4}}
	for _, c := range []struct {
		name   string
		key    func(Node) uint32
		global []Node
		keys   []uint32
		rows   [][]int32
	}{
		{"natural", nil, []Node{-4, 1, 2, 5}, []uint32{0, 0, 0, 0},
			[][]int32{{3}, {2}, {1, 3}, {0, 2}}},
		{"keyed", func(u Node) uint32 {
			if u == 5 {
				return 0
			}
			return 1
		}, []Node{5, -4, 1, 2}, []uint32{0, 1, 1, 1},
			[][]int32{{1, 3}, {0}, {3}, {0, 2}}},
	} {
		r := RankedFromEdges(edges, c.key)
		if r.NumNodes() != len(c.global) {
			t.Fatalf("%s: %d nodes, want %d", c.name, r.NumNodes(), len(c.global))
		}
		for a := int32(0); int(a) < r.NumNodes(); a++ {
			if r.Global(a) != c.global[a] || r.Key(a) != c.keys[a] {
				t.Fatalf("%s: local %d is (%d, key %d), want (%d, key %d)",
					c.name, a, r.Global(a), r.Key(a), c.global[a], c.keys[a])
			}
			row := r.Row(a)
			if len(row) != len(c.rows[a]) {
				t.Fatalf("%s: row %d = %v, want %v", c.name, a, row, c.rows[a])
			}
			for i := range row {
				if row[i] != c.rows[a][i] {
					t.Fatalf("%s: row %d = %v, want %v", c.name, a, row, c.rows[a])
				}
			}
		}
	}
}

// TestRankedCommonNeighbors: merging two ranked rows finds the same common
// neighbors as Graph.CommonNeighbors on the whole graph, in natural and
// bucket orders, so a reducer can intersect in local ids.
func TestRankedCommonNeighbors(t *testing.T) {
	g := PowerLaw(300, 10, 2.2, 4)
	h := NodeHash{Seed: 3, B: 4}
	for name, key := range map[string]func(Node) uint32{
		"natural": nil,
		"bucket":  func(u Node) uint32 { return uint32(h.Bucket(u)) },
	} {
		r := RankedFromEdges(g.Edges(), key)
		local := map[Node]int32{}
		for a := int32(0); int(a) < r.NumNodes(); a++ {
			local[r.Global(a)] = a
		}
		for _, e := range g.Edges()[:200] {
			x, y := r.Row(local[e.U]), r.Row(local[e.V])
			var got []Node
			for i, j := 0, 0; i < len(x) && j < len(y); {
				switch {
				case x[i] < y[j]:
					i++
				case x[i] > y[j]:
					j++
				default:
					got = append(got, r.Global(x[i]))
					i, j = i+1, j+1
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := g.CommonNeighbors(e.U, e.V, nil)
			if len(got) != len(want) {
				t.Fatalf("%s: common neighbors of %v: got %v, want %v", name, e, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: common neighbors of %v: got %v, want %v", name, e, got, want)
				}
			}
		}
	}
}

// TestBetween: the binary-searched sub-slice is exactly the entries
// strictly inside the interval, including empty and inverted intervals.
func TestBetween(t *testing.T) {
	list := []int32{1, 3, 4, 8, 9, 12}
	for _, c := range []struct {
		lo, hi int32
		want   []int32
	}{
		{-1, 13, list}, {3, 9, []int32{4, 8}}, {2, 4, []int32{3}},
		{4, 5, nil}, {9, 3, nil}, {12, 20, nil}, {-1, 1, nil},
	} {
		got := Between(list, c.lo, c.hi)
		if len(got) != len(c.want) {
			t.Fatalf("Between(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Between(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
			}
		}
	}
}

// TestRankedProbesZeroAlloc pins the allocation-free guarantee of the
// ranked fragment's edge probe, row lookup and range narrowing (the CQ
// reducers' innermost loop).
func TestRankedProbesZeroAlloc(t *testing.T) {
	h := NodeHash{Seed: 1, B: 4}
	r := RankedFromEdges(Gnm(500, 4000, 5).Edges(), func(u Node) uint32 { return uint32(h.Bucket(u)) })
	if allocs := testing.AllocsPerRun(100, func() {
		for a := int32(0); a < 64; a++ {
			row := r.Row(a)
			if len(row) == 0 || !r.HasEdge(a, row[0]) {
				t.Fatal("edge missing")
			}
			r.HasEdge(a, a+1)
			Between(row, a, a+100)
		}
	}); allocs != 0 {
		t.Fatalf("Ranked probes allocate: %v allocs/run", allocs)
	}
}
