package graph

import "testing"

// BenchmarkRankedBuild times the reducer-side CSR build on a bucket-oriented
// reducer's input for the square query on Gnm(20000,120000) at b=4 (the
// edges whose endpoints both hash into buckets {0, 1, 2}), ranked in the
// bucket-then-id order (the CQ reducers) and in the natural order (the
// triangle and share-based reducers).
func BenchmarkRankedBuild(b *testing.B) {
	h := NodeHash{Seed: 1, B: 4}
	var edges []Edge
	for _, e := range Gnm(20000, 120000, 1).Edges() {
		if h.Bucket(e.U) < 3 && h.Bucket(e.V) < 3 {
			edges = append(edges, e)
		}
	}
	bucket := func(u Node) uint32 { return uint32(h.Bucket(u)) }
	b.Run("bucket", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RankedFromEdges(edges, bucket)
		}
	})
	b.Run("natural", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RankedFromEdges(edges, nil)
		}
	})
}
