// Package triangle implements the three single-round map-reduce
// triangle-enumeration algorithms of Section 2:
//
//   - Partition — the algorithm of Suri & Vassilvitskii (Section 2.1):
//     nodes are split into b groups, one reducer per 3-subset of groups,
//     communication ≈ 3bm/2.
//   - Multiway — the plain multiway join E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z) of
//     Afrati & Ullman (Section 2.2): b³ reducers, communication (3b−2)m.
//   - BucketOrdered — the paper's improvement (Section 2.3): nodes ordered
//     by (bucket, id), one reducer per nondecreasing bucket triple
//     (C(b+2,3) of them), communication exactly bm.
//
// All three enumerate every triangle exactly once; ownership filters
// reproduce the papers' "discovered by only one reducer" arguments.
package triangle

import (
	"context"
	"fmt"
	"math"
	"slices"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
)

// Result is the outcome of one triangle job; the triangles themselves
// went to the job's sink.
type Result struct {
	// Metrics carries the communication cost, reducer count, skew, and
	// reducer work of the job; Metrics.Outputs counts the triangles the
	// sink accepted.
	Metrics mapreduce.Metrics
	// Buckets is the b used.
	Buckets int
}

type triple struct{ A, B, C int }

// runTriangleJob executes one triangle job, streaming each triangle (as an
// id-sorted node triple) into sink; see mapreduce.Job.RunStream for the
// sink and cancellation contract.
func runTriangleJob[V any](ctx context.Context, j mapreduce.Job[graph.Edge, triple, V, [3]graph.Node], cfg mapreduce.Config, edges []graph.Edge, b int, sink func([3]graph.Node) bool) (Result, error) {
	if sink == nil {
		return Result{}, fmt.Errorf("triangle: %s requires a non-nil sink", j.Name)
	}
	metrics, err := j.RunStream(ctx, cfg, edges, sink)
	return Result{Metrics: metrics, Buckets: b}, err
}

// PartitionContext runs the Suri–Vassilvitskii Partition algorithm with
// b ≥ 3 node groups. Each reducer R_{ijk} (i<j<k) receives the edges with
// both endpoints in S_i ∪ S_j ∪ S_k; a triangle is emitted only by the
// reducer whose triple is the canonical completion of the triangle's group
// set, so the over-counting the paper describes is compensated exactly.
// Each triangle goes to sink (serialized, with backpressure; returning
// false stops the job early). Cancelling ctx aborts the job with
// ctx.Err().
func PartitionContext(ctx context.Context, g *graph.Graph, b int, seed uint64, cfg mapreduce.Config, sink func([3]graph.Node) bool) (Result, error) {
	if b < 3 {
		return Result{}, fmt.Errorf("triangle: Partition needs b >= 3, got %d", b)
	}
	h := graph.NodeHash{Seed: seed, B: b}
	mapper := partitionMapper(h, b)
	reducer := func(ctx *mapreduce.Context, key triple, edges []graph.Edge, emit func([3]graph.Node)) {
		local := graph.RankedFromEdges(edges, nil)
		ctx.AddWork(trianglesIn(local, func(a, bb, c graph.Node) {
			if canonicalGroupTriple(h, b, a, bb, c) == key {
				emit([3]graph.Node{a, bb, c})
			}
		}))
	}
	return runTriangleJob(ctx, mapreduce.Job[graph.Edge, triple, graph.Edge, [3]graph.Node]{
		Name:   fmt.Sprintf("partition b=%d", b),
		Map:    mapper,
		Reduce: reducer,
		Codec:  edgeTripleCodec{},
	}, cfg, g.Edges(), b, sink)
}

// partitionMapper returns the Partition edge mapper: an edge whose
// endpoints fall in groups gu, gv reaches every 3-subset of groups
// containing both (C(b-1,2) subsets when gu = gv, b-2 otherwise).
func partitionMapper(h graph.NodeHash, b int) mapreduce.Mapper[graph.Edge, triple, graph.Edge] {
	return func(e graph.Edge, emit func(triple, graph.Edge)) {
		gu, gv := h.Bucket(e.U), h.Bucket(e.V)
		if gu == gv {
			// C(b-1, 2) reducers: every triple containing gu.
			for x := 0; x < b; x++ {
				if x == gu {
					continue
				}
				for y := x + 1; y < b; y++ {
					if y == gu {
						continue
					}
					emit(sortedTriple(gu, x, y), e)
				}
			}
			return
		}
		// b-2 reducers: every triple containing both gu and gv.
		for x := 0; x < b; x++ {
			if x == gu || x == gv {
				continue
			}
			emit(sortedTriple(gu, gv, x), e)
		}
	}
}

// canonicalGroupTriple maps a triangle to the unique reducer that owns it:
// the sorted distinct groups of its nodes, completed to three distinct
// values with the smallest unused group numbers.
func canonicalGroupTriple(h graph.NodeHash, b int, a, bb, c graph.Node) triple {
	var d [3]int
	nd := 0
	for _, u := range [3]graph.Node{a, bb, c} {
		g := h.Bucket(u)
		dup := false
		for i := 0; i < nd; i++ {
			if d[i] == g {
				dup = true
				break
			}
		}
		if !dup {
			d[nd] = g
			nd++
		}
	}
	for x := 0; nd < 3; x++ {
		used := false
		for i := 0; i < nd; i++ {
			if d[i] == x {
				used = true
				break
			}
		}
		if !used {
			d[nd] = x
			nd++
		}
		if x > b {
			panic("triangle: cannot complete group triple")
		}
	}
	return sortedTriple(d[0], d[1], d[2])
}

// roleMask marks which join roles an edge plays at a reducer.
type roleMask uint8

const (
	roleXY roleMask = 1 << iota
	roleYZ
	roleXZ
)

type taggedEdge struct {
	E     graph.Edge
	Roles roleMask
}

// MultiwayContext runs the Section 2.2 algorithm: the cyclic join
// E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z) over the id-ordered edge relation, with shares
// (b, b, b). Each edge reaches exactly 3b−2 distinct reducers (the paper's
// footnote-1 dedup is performed, merging the coinciding role copies). See
// PartitionContext for the sink contract.
func MultiwayContext(ctx context.Context, g *graph.Graph, b int, seed uint64, cfg mapreduce.Config, sink func([3]graph.Node) bool) (Result, error) {
	if b < 1 {
		return Result{}, fmt.Errorf("triangle: Multiway needs b >= 1, got %d", b)
	}
	h := graph.NodeHash{Seed: seed, B: b}
	mapper := multiwayMapper(h, b)
	reducer := func(ctx *mapreduce.Context, key triple, edges []taggedEdge, emit func([3]graph.Node)) {
		// Role-structured join: X=u, Y=v, Z=w with E(u,v) as XY, E(v,w) as
		// YZ, E(u,w) as XZ (each pair id-ordered).
		yzByFirst := make(map[graph.Node][]graph.Node)
		xz := make(map[uint64]bool)
		for _, te := range edges {
			if te.Roles&roleYZ != 0 {
				yzByFirst[te.E.U] = append(yzByFirst[te.E.U], te.E.V)
			}
			if te.Roles&roleXZ != 0 {
				xz[te.E.Key()] = true
			}
		}
		for _, te := range edges {
			if te.Roles&roleXY == 0 {
				continue
			}
			u, v := te.E.U, te.E.V
			for _, w := range yzByFirst[v] {
				ctx.AddWork(1)
				if xz[(graph.Edge{U: u, V: w}).Key()] {
					emit([3]graph.Node{u, v, w})
				}
			}
		}
	}
	return runTriangleJob(ctx, mapreduce.Job[graph.Edge, triple, taggedEdge, [3]graph.Node]{
		Name:   fmt.Sprintf("multiway shares=(%d,%d,%d)", b, b, b),
		Map:    mapper,
		Reduce: reducer,
		Codec:  taggedTripleCodec{},
	}, cfg, g.Edges(), b, sink)
}

// multiwayMapper returns the Section 2.2 mapper: the edge plays each of its
// three join roles across b shares, the coinciding role copies merged
// (footnote 1's dedup) so it reaches exactly 3b−2 distinct reducers.
func multiwayMapper(h graph.NodeHash, b int) mapreduce.Mapper[graph.Edge, triple, taggedEdge] {
	return func(e graph.Edge, emit func(triple, taggedEdge)) {
		u, v := e.U, e.V // u < v by canonical orientation
		hu, hv := h.Bucket(u), h.Bucket(v)
		// Collect the ≤3b (key, role) pairs in a small scratch slice,
		// merging the coinciding role copies by linear scan (footnote 1's
		// dedup) — the previous map allocated per edge on the hot path.
		type keyed struct {
			k     triple
			roles roleMask
		}
		keys := make([]keyed, 0, 3*b)
		add := func(k triple, r roleMask) {
			for i := range keys {
				if keys[i].k == k {
					keys[i].roles |= r
					return
				}
			}
			keys = append(keys, keyed{k, r})
		}
		for z := 0; z < b; z++ {
			add(triple{hu, hv, z}, roleXY)
		}
		for x := 0; x < b; x++ {
			add(triple{x, hu, hv}, roleYZ)
		}
		for y := 0; y < b; y++ {
			add(triple{hu, y, hv}, roleXZ)
		}
		for _, kr := range keys {
			emit(kr.k, taggedEdge{e, kr.roles})
		}
	}
}

// BucketOrderedContext runs the Section 2.3 algorithm: nodes are ordered
// by (bucket, id); reducers are the nondecreasing bucket triples; each
// edge is shipped to exactly b reducers; the triangle (u ≺ v ≺ w) is owned
// by the reducer of its sorted bucket triple. See PartitionContext for the
// sink contract.
func BucketOrderedContext(ctx context.Context, g *graph.Graph, b int, seed uint64, cfg mapreduce.Config, sink func([3]graph.Node) bool) (Result, error) {
	if b < 1 {
		return Result{}, fmt.Errorf("triangle: BucketOrdered needs b >= 1, got %d", b)
	}
	h := graph.NodeHash{Seed: seed, B: b}
	mapper := bucketOrderedMapper(h, b)
	reducer := func(ctx *mapreduce.Context, key triple, edges []graph.Edge, emit func([3]graph.Node)) {
		local := graph.RankedFromEdges(edges, nil)
		ctx.AddWork(trianglesIn(local, func(a, bb, c graph.Node) {
			if sortedTriple(h.Bucket(a), h.Bucket(bb), h.Bucket(c)) == key {
				emit([3]graph.Node{a, bb, c})
			}
		}))
	}
	return runTriangleJob(ctx, mapreduce.Job[graph.Edge, triple, graph.Edge, [3]graph.Node]{
		Name:   fmt.Sprintf("bucket-ordered b=%d", b),
		Map:    mapper,
		Reduce: reducer,
		Codec:  edgeTripleCodec{},
	}, cfg, g.Edges(), b, sink)
}

// bucketOrderedMapper returns the Section 2.3 mapper: each edge reaches the
// b nondecreasing bucket triples containing both endpoint buckets.
func bucketOrderedMapper(h graph.NodeHash, b int) mapreduce.Mapper[graph.Edge, triple, graph.Edge] {
	return func(e graph.Edge, emit func(triple, graph.Edge)) {
		i, j := h.Bucket(e.U), h.Bucket(e.V)
		// The b keys {i,j,w} for w = 0..b-1 are distinct multisets, so no
		// dedup structure is needed on this per-edge hot path.
		for w := 0; w < b; w++ {
			emit(sortedTriple(i, j, w), e)
		}
	}
}

// PartitionLoads, MultiwayLoads and BucketOrderedLoads measure, map-only,
// the reducer loads their Section 2 algorithm ships at bucket count b —
// the exact mapper the job executes, so the planner's adaptive probes
// observe precisely the loads a run would produce. Partition needs b >= 3;
// the planner prices it only at such b, so it checks before probing.
func PartitionLoads(g *graph.Graph, b int, seed uint64, cfg mapreduce.Config) mapreduce.LoadStats {
	return loads(g, b, seed, cfg, partitionMapper)
}

// MultiwayLoads: see PartitionLoads.
func MultiwayLoads(g *graph.Graph, b int, seed uint64, cfg mapreduce.Config) mapreduce.LoadStats {
	return loads(g, b, seed, cfg, multiwayMapper)
}

// BucketOrderedLoads: see PartitionLoads.
func BucketOrderedLoads(g *graph.Graph, b int, seed uint64, cfg mapreduce.Config) mapreduce.LoadStats {
	return loads(g, b, seed, cfg, bucketOrderedMapper)
}

func loads[V any](g *graph.Graph, b int, seed uint64, cfg mapreduce.Config, mapper func(graph.NodeHash, int) mapreduce.Mapper[graph.Edge, triple, V]) mapreduce.LoadStats {
	return mapreduce.ReducerLoadStats(cfg, g.Edges(), mapper(graph.NodeHash{Seed: seed, B: b}, b))
}

// trianglesIn enumerates each triangle of a natural-order fragment once
// (emitted id-sorted) using the degree-ordered successor method — the same
// O(m^{3/2}) serial algorithm, so reducer work stays convertible. Returns
// the number of candidate pairs examined (the pairwise count, although the
// verification itself runs as a sorted merge of rows).
func trianglesIn(r *graph.Ranked, emit func(a, b, c graph.Node)) int64 {
	n := r.NumNodes()
	deg := make([]int32, n)
	for i := range deg {
		deg[i] = int32(len(r.Row(int32(i))))
	}
	// Degree order with the id tie-break: in natural order local id order
	// is id order, so the whole ordering works on flat arrays.
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if deg[a] != deg[b] {
			return int(deg[a] - deg[b])
		}
		return int(a - b)
	})
	rank := make([]int32, n)
	for pos, i := range ord {
		rank[i] = int32(pos)
	}
	var work int64
	var succ, common []int32
	for v := int32(0); v < int32(n); v++ {
		succ = succ[:0]
		for _, u := range r.Row(v) {
			if rank[u] > rank[v] {
				succ = append(succ, u)
			}
		}
		work += int64(len(succ)*(len(succ)-1)) / 2
		for j := 0; j+1 < len(succ); j++ {
			u := succ[j]
			common = graph.IntersectSorted(succ[j+1:], r.Row(u), common[:0])
			for _, w := range common {
				a, bb, c := v, u, w
				if a > bb {
					a, bb = bb, a
				}
				if bb > c {
					bb, c = c, bb
				}
				if a > bb {
					a, bb = bb, a
				}
				emit(r.Global(a), r.Global(bb), r.Global(c))
			}
		}
	}
	return work
}

func sortedTriple(a, b, c int) triple {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return triple{a, b, c}
}

// PartitionCommPerEdge is the exact expected per-edge communication of
// Partition: (1/b)·C(b-1,2) + ((b-1)/b)·(b-2) = 3(b-1)(b-2)/(2b).
func PartitionCommPerEdge(b int) float64 {
	fb := float64(b)
	return 3 * (fb - 1) * (fb - 2) / (2 * fb)
}

// MultiwayCommPerEdge is the exact per-edge communication of the Section 2.2
// algorithm: 3b − 2.
func MultiwayCommPerEdge(b int) float64 { return float64(3*b - 2) }

// BucketOrderedCommPerEdge is the exact per-edge communication of the
// Section 2.3 algorithm: b.
func BucketOrderedCommPerEdge(b int) float64 { return float64(b) }

// PartitionReducers is C(b,3), the reducer count of Partition.
func PartitionReducers(b int) int64 {
	return int64(b) * int64(b-1) * int64(b-2) / 6
}

// MultiwayReducers is b³.
func MultiwayReducers(b int) int64 { return int64(b) * int64(b) * int64(b) }

// BucketOrderedReducers is C(b+2,3), the useful-reducer count of
// Section 2.3 (Theorem 4.2 with p = 3).
func BucketOrderedReducers(b int) int64 {
	return int64(b+2) * int64(b+1) * int64(b) / 6
}

// BucketsForReducers returns the largest b whose reducer count (per the
// given formula) does not exceed k — the Fig. 1 bucket choices b = ∛(6k)
// for Partition and BucketOrdered, b = ∛k for Multiway.
func BucketsForReducers(k int64, reducers func(int) int64) int {
	b := 1
	for reducers(b+1) <= k {
		b++
	}
	return b
}

// Fig1CommPerEdge returns the asymptotic Fig. 1 communication costs per
// edge for k reducers: Partition 3·∛(6k)/2, Multiway 3·∛k, BucketOrdered
// ∛(6k).
func Fig1CommPerEdge(k float64) (partition, multiway, bucketOrdered float64) {
	c6k := math.Cbrt(6 * k)
	return 3 * c6k / 2, 3 * math.Cbrt(k), c6k
}
