package graph

import (
	"slices"
	"sort"
)

// Sparse is a small adjacency structure over an arbitrary (non-dense) node
// id set. The triangle reducers use it for the fragment of the data graph
// they receive: node identifiers keep their global meaning but only a few
// appear. (The CQ reducers relabel their fragment instead; see Ranked.)
//
// A Sparse has two phases. While building, AddEdge appends into a map of
// adjacency lists with a hash set for duplicate detection. Freeze compacts
// the fragment into CSR form — a sorted distinct-node index, one neighbor
// slab, per-node offsets, every list ascending, and an open-addressing
// id→index table — and drops both maps; from then on a lookup is one table
// probe plus, for an edge test, one binary search over a flat list, with
// no per-probe allocation. That is the build-once/probe-many shape of the
// reducer inner loops, and SparseFromEdges arrives frozen without ever
// building the maps.
type Sparse struct {
	// Frozen CSR form.
	nodes []Node  // sorted distinct nodes with at least one incident edge
	off   []int32 // len(nodes)+1; neighbors of nodes[i] are nbr[off[i]:off[i+1]]
	nbr   []Node  // neighbor slab (global ids), each list ascending
	htab  []int32 // open-addressing id→index table (power-of-2, -1 = empty)
	hmask uint32

	// Build form (nil once frozen).
	adj map[Node][]Node
	set map[uint64]struct{}

	m      int
	frozen bool
}

// NewSparse returns an empty Sparse graph in building phase.
func NewSparse() *Sparse {
	return &Sparse{adj: make(map[Node][]Node), set: make(map[uint64]struct{})}
}

// pack encodes a directed adjacency entry for sorting: primary key u,
// secondary key v, both as unsigned words so slices.Sort orders them.
func pack(u, v Node) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// SparseFromEdges builds a frozen Sparse graph from the given edges,
// ignoring duplicates and self-loops. The build is map-free: both
// directions of every edge are packed into one word slice, sorted and
// deduped, and the CSR arrays are carved out in a single scan.
func SparseFromEdges(edges []Edge) *Sparse {
	pairs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		pairs = append(pairs, pack(e.U, e.V), pack(e.V, e.U))
	}
	s := &Sparse{}
	s.buildCSR(pairs)
	return s
}

// buildCSR sorts and dedups the packed adjacency entries and lays out the
// frozen form.
func (s *Sparse) buildCSR(pairs []uint64) {
	pairs = sortDedup(pairs)
	w := len(pairs)
	s.nbr = make([]Node, w)
	s.nodes = s.nodes[:0]
	s.off = s.off[:0]
	var prev Node
	for i, p := range pairs {
		u, v := Node(uint32(p>>32)), Node(uint32(p))
		if i == 0 || u != prev {
			s.nodes = append(s.nodes, u)
			s.off = append(s.off, int32(i))
			prev = u
		}
		s.nbr[i] = v
	}
	s.off = append(s.off, int32(w))
	s.m = w / 2
	s.buildIndex()
	s.adj, s.set = nil, nil
	s.frozen = true
}

// buildIndex fills the open-addressing id→index table: power-of-2 sized at
// ≥2× load, linear probing, so the hot-path index lookup is one multiply
// and (almost always) one slot probe instead of a branchy binary search.
func (s *Sparse) buildIndex() {
	size := uint32(4)
	for size < 2*uint32(len(s.nodes)) {
		size *= 2
	}
	if cap(s.htab) >= int(size) {
		s.htab = s.htab[:size]
	} else {
		s.htab = make([]int32, size)
	}
	for i := range s.htab {
		s.htab[i] = -1
	}
	s.hmask = size - 1
	for i, u := range s.nodes {
		h := idHash(u) & s.hmask
		for s.htab[h] >= 0 {
			h = (h + 1) & s.hmask
		}
		s.htab[h] = int32(i)
	}
}

// idHash mixes a node id for the open-addressing table (splitmix32-style
// finalizer).
func idHash(u Node) uint32 {
	x := uint32(u)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Freeze compacts the fragment into its CSR form and id→index table,
// switching lookups from the build-time maps (which it releases) to flat
// arrays. Call it once per fragment before a probe-heavy loop. Freezing an
// already-frozen Sparse is a no-op.
func (s *Sparse) Freeze() {
	if s.frozen {
		return
	}
	pairs := make([]uint64, 0, 2*s.m)
	for u, list := range s.adj {
		for _, v := range list {
			pairs = append(pairs, pack(u, v))
		}
	}
	s.buildCSR(pairs)
}

// thaw converts a frozen Sparse back to building form (the cold path for
// AddEdge after Freeze).
func (s *Sparse) thaw() {
	s.adj = make(map[Node][]Node, len(s.nodes))
	s.set = make(map[uint64]struct{}, s.m)
	for i, u := range s.nodes {
		list := s.nbr[s.off[i]:s.off[i+1]]
		s.adj[u] = append([]Node(nil), list...)
		for _, v := range list {
			if u < v {
				s.set[Edge{u, v}.Key()] = struct{}{}
			}
		}
	}
	s.nodes, s.off, s.nbr = nil, nil, nil
	s.frozen = false
}

// AddEdge inserts the undirected edge {u, v}; duplicates and self-loops are
// ignored. It reports whether the edge was new. On a frozen Sparse it thaws
// back to building form first — callers interleaving AddEdge with heavy
// probing should re-Freeze afterwards.
func (s *Sparse) AddEdge(u, v Node) bool {
	if u == v {
		return false
	}
	if s.frozen {
		if s.HasEdge(u, v) {
			return false
		}
		s.thaw()
	}
	k := Edge{u, v}.Key()
	if _, dup := s.set[k]; dup {
		return false
	}
	s.set[k] = struct{}{}
	s.adj[u] = append(s.adj[u], v)
	s.adj[v] = append(s.adj[v], u)
	s.m++
	return true
}

// index returns the position of u in the frozen node index, or -1.
func (s *Sparse) index(u Node) int {
	for h := idHash(u) & s.hmask; ; h = (h + 1) & s.hmask {
		j := s.htab[h]
		if j < 0 {
			return -1
		}
		if s.nodes[j] == u {
			return int(j)
		}
	}
}

// HasEdge reports whether {u, v} is present. On a frozen Sparse this is one
// id→index table probe plus one binary search in u's list, and never
// allocates.
func (s *Sparse) HasEdge(u, v Node) bool {
	if u == v {
		return false
	}
	if !s.frozen {
		_, ok := s.set[Edge{u, v}.Key()]
		return ok
	}
	i := s.index(u)
	if i < 0 {
		return false
	}
	return containsSorted(s.nbr[s.off[i]:s.off[i+1]], v)
}

// CommonNeighbors appends the common neighborhood N(u) ∩ N(v) to dst and
// returns it, as a sorted merge over the frozen adjacency lists (it freezes
// the Sparse if needed).
func (s *Sparse) CommonNeighbors(u, v Node, dst []Node) []Node {
	s.Freeze()
	return IntersectSorted(s.Neighbors(u), s.Neighbors(v), dst)
}

// Neighbors returns the neighbors of u (sorted ascending once frozen).
func (s *Sparse) Neighbors(u Node) []Node {
	if !s.frozen {
		return s.adj[u]
	}
	i := s.index(u)
	if i < 0 {
		return nil
	}
	return s.nbr[s.off[i]:s.off[i+1]]
}

// NeighborsAt returns the neighbors of Nodes()[i] on a frozen Sparse,
// letting index-driven loops (the triangle reducers) skip the per-node
// table probe.
func (s *Sparse) NeighborsAt(i int) []Node {
	s.Freeze()
	return s.nbr[s.off[i]:s.off[i+1]]
}

// IndexOf returns the position of u in Nodes() on a frozen Sparse, or -1 if
// u has no incident edge.
func (s *Sparse) IndexOf(u Node) int {
	s.Freeze()
	return s.index(u)
}

// Degree returns the degree of u.
func (s *Sparse) Degree(u Node) int { return len(s.Neighbors(u)) }

// NumEdges returns the number of distinct edges.
func (s *Sparse) NumEdges() int { return s.m }

// Nodes returns the sorted list of nodes with at least one incident edge.
// The returned slice is shared with the graph and must not be modified.
func (s *Sparse) Nodes() []Node {
	if s.frozen {
		return s.nodes
	}
	nodes := make([]Node, 0, len(s.adj))
	for u := range s.adj {
		nodes = append(nodes, u)
	}
	slices.Sort(nodes)
	return nodes
}

// Edges returns all edges in canonical orientation, sorted.
func (s *Sparse) Edges() []Edge {
	out := make([]Edge, 0, s.m)
	if s.frozen {
		// Nodes ascending × sorted lists ⇒ canonical edges in sorted order.
		for i, u := range s.nodes {
			for _, v := range s.nbr[s.off[i]:s.off[i+1]] {
				if v > u {
					out = append(out, Edge{u, v})
				}
			}
		}
		return out
	}
	for k := range s.set {
		out = append(out, Edge{Node(k >> 32), Node(uint32(k))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
