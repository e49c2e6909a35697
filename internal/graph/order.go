package graph

import "sort"

// DegreeRank returns rank[u] = position of u in the nondecreasing-degree
// order, ties broken by identifier (the order < of Section 7.1 used for
// properly ordered 2-paths).
func (g *Graph) DegreeRank() []int32 {
	nodes := make([]Node, g.n)
	for i := range nodes {
		nodes[i] = Node(i)
	}
	sort.Slice(nodes, func(i, j int) bool {
		du, dv := g.Degree(nodes[i]), g.Degree(nodes[j])
		if du != dv {
			return du < dv
		}
		return nodes[i] < nodes[j]
	})
	rank := make([]int32, g.n)
	for pos, u := range nodes {
		rank[u] = int32(pos)
	}
	return rank
}

// NodeHash maps nodes to buckets 0 .. B-1 using a seeded mixing function, so
// different jobs and different variables can use independent hashes.
// Ordering nodes by bucket, then identifier, is the node order of
// Section 2.3 (a Ranked fragment keyed by Bucket).
type NodeHash struct {
	Seed uint64
	B    int
}

// Bucket returns the bucket of node u in [0, h.B).
func (h NodeHash) Bucket(u Node) int {
	x := uint64(uint32(u)) + h.Seed
	// splitmix64 finalizer: cheap, well-mixed, deterministic across runs.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(h.B))
}
