package core

import (
	"context"
	"fmt"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/shares"
)

// EnumerateDecomposedStream runs the Theorem 6.1 conversion of the serial
// decomposition algorithm (Theorem 7.2) as one map-reduce round: edges are
// shipped with the Section 4.5 bucket mapper at opt.Buckets, every reducer
// runs the serial decomposition algorithm on its local edge fragment, and
// an instance is kept only by the reducer owning its bucket multiset — so
// each instance surfaces exactly once and total reducer work stays
// Θ(serial work) spread over C(b+p-1, p) reducers. Pass nil parts to use
// the optimal decomposition. Instances are delivered to sink; see
// EnumerateStream for the sink and cancellation contract.
//
// The sample must be connected: every node of an instance is then incident
// to an instance edge, all of which reach the owning reducer.
func EnumerateDecomposedStream(ctx context.Context, g *graph.Graph, s *sample.Sample, parts []sample.Part, opt Options, cfg mapreduce.Config, sink func([]graph.Node) bool) (*Result, error) {
	if sink == nil {
		return nil, fmt.Errorf("core: EnumerateDecomposedStream requires a non-nil sink")
	}
	if !s.IsConnected() {
		return nil, fmt.Errorf("core: map-reduce enumeration requires a connected sample graph")
	}
	if parts == nil {
		parts, _ = s.Decompose()
	}
	if err := s.ValidateParts(parts); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p, b := s.P(), opt.Buckets
	if err := checkBuckets(b); err != nil {
		return nil, err
	}
	h := bucketHash(opt.Seed, b)

	reducer := func(ctx *mapreduce.Context, key string, edges []graph.Edge, emit func([]graph.Node)) {
		maxID := graph.Node(0)
		for _, e := range edges {
			if e.U > maxID {
				maxID = e.U
			}
			if e.V > maxID {
				maxID = e.V
			}
		}
		local := graph.FromEdges(int(maxID)+1, edges)
		found, work, err := serial.EnumerateByDecomposition(local, s, parts)
		if err != nil {
			// Parts were validated up front; a failure here is a bug.
			panic(fmt.Sprintf("core: decomposition rejected after validation: %v", err))
		}
		ctx.AddWork(work)
		instBuckets := make([]int, p)
		for _, phi := range found {
			for i, u := range phi {
				instBuckets[i] = h.Bucket(u)
			}
			sortSmallInts(instBuckets)
			if bucketsEqualKey(instBuckets, key) {
				emit(phi)
			}
		}
	}

	metrics, err := mapreduce.Job[graph.Edge, string, graph.Edge, []graph.Node]{
		Name:   fmt.Sprintf("decomposed (Theorem 6.1) b=%d", b),
		Map:    bucketEdgeMapper(h, p, b),
		Reduce: reducer,
		Codec:  edgeCodec{},
	}.RunStream(ctx, cfg, g.Edges(), sink)
	if err != nil {
		return nil, err
	}

	job := JobStats{
		Label:                fmt.Sprintf("decomposed (Theorem 6.1 conversion) b=%d", b),
		Shares:               uniformShares(p, b),
		PredictedCommPerEdge: shares.BucketEdgeReplication(b, p),
		OptimalCommPerEdge:   shares.BucketEdgeReplication(b, p),
		Metrics:              metrics,
		ObservedSkew:         metrics.Skew(),
	}
	return &Result{Count: metrics.Outputs, Jobs: []JobStats{job}}, nil
}
