package cq

import (
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// BenchmarkEvaluateAll times one bucket-oriented reducer's evaluation of
// the merged square CQs: the fragment is the edges of Gnm(20000,120000)
// whose endpoints both hash into buckets {0, 1, 2} at b=4, ranked by
// (bucket, id). It reports the evaluator's work units per op.
func BenchmarkEvaluateAll(b *testing.B) {
	h := graph.NodeHash{Seed: 1, B: 4}
	var edges []graph.Edge
	for _, e := range graph.Gnm(20000, 120000, 1).Edges() {
		if h.Bucket(e.U) < 3 && h.Bucket(e.V) < 3 {
			edges = append(edges, e)
		}
	}
	local := graph.RankedFromEdges(edges, func(u graph.Node) uint32 { return uint32(h.Bucket(u)) })
	set := NewEvaluatorSet(MergeByOrientation(GenerateForSample(sample.Square())))
	b.ReportAllocs()
	b.ResetTimer()
	var work int64
	for i := 0; i < b.N; i++ {
		work = set.EvaluateAll(local, func([]graph.Node, []int32) {})
	}
	b.ReportMetric(float64(work), "work/op")
}
