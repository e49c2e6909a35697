package graph

import "slices"

// Ranked is a reducer fragment relabelled into a total node order; every
// reducer that builds a local graph (the CQ and the Section 2 triangle
// reducers) builds one. The CQ machinery evaluates under "some given
// order of the nodes" (the natural id order, or the bucket-then-id order
// of Section 2.3); Ranked bakes that order into the local ids once per
// fragment, so the enumeration loops compare plain int32s instead of
// re-deriving the order on every comparison.
//
// Local id r is the node of rank r: rows are numbered 0 .. NumNodes()-1 in
// the order, every neighbor list holds local ids ascending in that order,
// and Global maps a local id back to its data-graph node. Only nodes with
// at least one incident edge appear.
type Ranked struct {
	global []Node   // local id → global id
	key    []uint32 // local id → order key (nil in natural order)
	off    []int32  // len(global)+1; row r is nbr[off[r]:off[r+1]]
	nbr    []int32  // neighbor local ids, each row ascending
}

// packOrdered encodes a directed adjacency entry so that unsigned word
// order is the signed (u, v) order of node ids.
func packOrdered(u, v Node) uint64 {
	return uint64(uint32(u)^signBit)<<32 | uint64(uint32(v)^signBit)
}

const signBit = 1 << 31

// RankedFromEdges builds the ranked CSR of an edge fragment, ignoring
// duplicates and self-loops. Nodes are ordered by (key(u), u); a nil key
// is the natural id order. key is called once per distinct node.
//
// The build sorts one packed word per adjacency entry and drops repeats,
// rewrites each entry's target as its rank in place, and copies each
// source's run into its rank's row. No id→index hash table is built: the
// reducers index by rank.
func RankedFromEdges(edges []Edge, key func(Node) uint32) *Ranked {
	pairs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		pairs = append(pairs, packOrdered(e.U, e.V), packOrdered(e.V, e.U))
	}
	pairs = sortDedup(pairs)

	// Distinct sources in id order. Sources and targets coincide: every
	// entry's mirror is present.
	n := 0
	for i, p := range pairs {
		if i == 0 || p>>32 != pairs[i-1]>>32 {
			n++
		}
	}
	ids := make([]Node, 0, n)
	for i, p := range pairs {
		if i == 0 || p>>32 != pairs[i-1]>>32 {
			ids = append(ids, Node(uint32(p>>32)^signBit))
		}
	}

	r := &Ranked{global: ids, off: make([]int32, n+1), nbr: make([]int32, len(pairs))}
	rankOf := make([]int32, n) // id-order index → rank
	if key == nil {
		for i := range rankOf {
			rankOf[i] = int32(i)
		}
	} else {
		ord := make([]uint64, n) // (key, id-order index), sorted into rank order
		for i, u := range ids {
			ord[i] = uint64(key(u))<<32 | uint64(i)
		}
		slices.Sort(ord)
		r.global = make([]Node, n)
		r.key = make([]uint32, n)
		for rk, o := range ord {
			i := uint32(o)
			r.global[rk] = ids[i]
			r.key[rk] = uint32(o >> 32)
			rankOf[i] = int32(rk)
		}
	}

	// Row lengths, then offsets in rank order.
	for i, src := 0, 0; i < len(pairs); src++ {
		j := runEnd(pairs, i)
		r.off[rankOf[src]+1] = int32(j - i)
		i = j
	}
	for k := 1; k <= n; k++ {
		r.off[k] += r.off[k-1]
	}

	// Rewrite every entry's target id as its rank: through an id-indexed
	// table when the id span is at most four per entry (the table is then
	// at most twice the pair buffer), else by binary search over the
	// id-sorted nodes.
	const low = 1<<32 - 1
	if n > 0 {
		first := ids[0]
		if span := int64(ids[n-1]) - int64(first) + 1; span <= int64(4*len(pairs)) {
			table := make([]int32, span)
			for i, u := range ids {
				table[u-first] = rankOf[i]
			}
			for k, p := range pairs {
				v := Node(uint32(p) ^ signBit)
				pairs[k] = p&^low | uint64(uint32(table[v-first]))
			}
		} else {
			for k, p := range pairs {
				v := Node(uint32(p) ^ signBit)
				pairs[k] = p&^low | uint64(uint32(rankOf[searchNodes(ids, v)]))
			}
		}
	}

	// Rows: each source's run lands in its rank's row, re-sorted by rank
	// unless the order is the id order.
	for i, src := 0, 0; i < len(pairs); src++ {
		j := runEnd(pairs, i)
		rk := rankOf[src]
		row := r.nbr[r.off[rk]:r.off[rk+1]]
		for k, p := range pairs[i:j] {
			row[k] = int32(uint32(p))
		}
		if key != nil {
			slices.Sort(row)
		}
		i = j
	}
	return r
}

// sortDedup sorts the packed adjacency entries and drops duplicates in
// place.
func sortDedup(pairs []uint64) []uint64 {
	slices.Sort(pairs)
	w := 0
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			pairs[w] = p
			w++
		}
	}
	return pairs[:w]
}

// runEnd returns the end of the run of entries sharing pairs[i]'s source.
func runEnd(pairs []uint64, i int) int {
	j := i + 1
	for j < len(pairs) && pairs[j]>>32 == pairs[i]>>32 {
		j++
	}
	return j
}

// searchNodes returns the first index of the ascending list whose entry is
// at least v.
//
//lint:hotpath
func searchNodes(list []Node, v Node) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NumNodes returns the number of nodes (local ids are 0 .. NumNodes()-1).
func (r *Ranked) NumNodes() int { return len(r.global) }

// Global returns the data-graph node of local id u.
func (r *Ranked) Global(u int32) Node { return r.global[u] }

// Key returns the order key of local id u (0 in natural order). Keys are
// nondecreasing in local id.
func (r *Ranked) Key(u int32) uint32 {
	if r.key == nil {
		return 0
	}
	return r.key[u]
}

// Row returns the neighbors of local id u, ascending. The returned slice is
// shared with the graph and must not be modified.
//
//lint:hotpath
func (r *Ranked) Row(u int32) []int32 { return r.nbr[r.off[u]:r.off[u+1]] }

// HasEdge reports whether local ids u and v are adjacent: one binary search
// in the shorter of the two rows. It never allocates.
//
//lint:hotpath
func (r *Ranked) HasEdge(u, v int32) bool {
	if r.off[u+1]-r.off[u] > r.off[v+1]-r.off[v] {
		u, v = v, u
	}
	return containsSorted(r.nbr[r.off[u]:r.off[u+1]], v)
}

// Between returns the sub-slice of the ascending list whose entries lie
// strictly between lo and hi, found by two binary searches. It is empty
// when lo >= hi.
//
//lint:hotpath
func Between(list []int32, lo, hi int32) []int32 {
	i := searchNodes(list, lo+1)
	return list[i : i+searchNodes(list[i:], hi)]
}
