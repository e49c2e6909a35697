package subgraphmr

import (
	"context"
	"fmt"
	"iter"

	"subgraphmr/internal/core"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/triangle"
	"subgraphmr/internal/tworound"
)

// Run executes a plan and materializes its result: every instance of the
// plan's sample in its data graph, exactly once, plus unified per-job
// statistics — the same Result shape for all strategies, triangle
// algorithms and the two-round cascade included. Run is Stream with a
// sink that collects the instances (or, under WithCountOnly, only counts
// them, leaving Result.Instances nil), so both report identical metrics
// wherever the plan executes. Cancelling ctx aborts the running jobs
// (engine workers wind down, spill runs are removed) and returns
// ctx.Err().
func Run(ctx context.Context, p *QueryPlan) (*Result, error) {
	if err := checkRunnable(ctx, p); err != nil {
		return nil, err
	}
	var instances [][]Node
	sink := func(phi []Node) bool {
		instances = append(instances, phi)
		return true
	}
	if p.opts.countOnly {
		sink = func([]Node) bool { return true }
	}
	res, err := Stream(ctx, p, sink)
	if err != nil {
		return nil, err
	}
	res.Instances = instances
	return res, nil
}

// Stream executes a plan, delivering each instance to yield instead of
// materializing Result.Instances. Calls to yield are serialized and block
// the emitting reduce worker, so delivery is consumer-paced and the
// output never accumulates in memory; the shuffle's grouped intermediate
// state is still built before the first delivery, so bound it with
// WithMemoryBudget when it may exceed RAM. Returning false from yield
// stops the enumeration early with a nil error (remaining reducer groups
// are skipped); cancelling ctx aborts it with ctx.Err(). WithCountOnly is
// ignored — streaming always delivers. The returned Result carries the
// (possibly partial) job metrics and Count — the number of instances
// yield accepted.
func Stream(ctx context.Context, p *QueryPlan, yield func([]Node) bool) (*Result, error) {
	if err := checkRunnable(ctx, p); err != nil {
		return nil, err
	}
	if yield == nil {
		return nil, fmt.Errorf("subgraphmr: Stream requires a non-nil yield")
	}
	if p.opts.isDistributed() {
		return runDistributed(ctx, p, yield)
	}
	return runLocal(ctx, p, yield)
}

// runLocal executes a plan in-process through its strategy's executor. It
// is also how a distributed worker executes its job (with planOpts.dist
// set, so every strategy's engine rounds filter to the owned key-space
// slices) and how the coordinator degrades to local execution.
func runLocal(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	d := lookup(p.Strategy)
	if d == nil || d.run == nil {
		return nil, fmt.Errorf("subgraphmr: cannot run strategy %v", p.Strategy)
	}
	return d.run(ctx, d, p, sink)
}

// Instances executes a plan as a streaming iterator: instances are
// delivered one at a time at the consumer's pace, so enumerations whose
// output dwarfs memory can be consumed incrementally (the shuffle's
// grouped intermediate state is separate — bound it with WithMemoryBudget
// when it may exceed RAM). Breaking out of the range loop — or cancelling
// ctx — tears the engine down promptly: remaining reducer groups are
// skipped, spill files are removed, and no goroutines are left behind.
// WithCountOnly is ignored — streaming always delivers. A cancelled or
// expired context surfaces as a final iteration with a non-nil error (and
// a nil instance slice).
func Instances(ctx context.Context, p *QueryPlan) iter.Seq2[[]Node, error] {
	return func(yield func([]Node, error) bool) {
		if err := checkRunnable(ctx, p); err != nil {
			yield(nil, err)
			return
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		instances := make(chan []Node) // unbuffered: backpressure to the engine
		errc := make(chan error, 1)
		go func() {
			_, err := Stream(ctx, p, func(phi []Node) bool {
				select {
				case instances <- phi:
					return true
				case <-ctx.Done():
					return false
				}
			})
			errc <- err
			close(instances)
		}()

		for phi := range instances {
			if !yield(phi, nil) {
				// Early break: tear down the engine and wait for it so no
				// goroutines or spill files outlive the loop.
				cancel()
				for range instances {
				}
				<-errc
				return
			}
		}
		if err := <-errc; err != nil {
			yield(nil, err)
		}
	}
}

func checkRunnable(ctx context.Context, p *QueryPlan) error {
	if p == nil || p.graph == nil || p.sample == nil {
		return fmt.Errorf("subgraphmr: nil or incomplete plan (build it with Plan)")
	}
	if ctx == nil {
		return fmt.Errorf("subgraphmr: nil context")
	}
	return nil
}

// coreOptions hands internal/core the plan's resolved configuration: the
// chosen bucket count (0 for the share-based strategies, which optimize
// shares for the reducer budget instead), the budget itself and the
// adaptive re-planning knobs.
func (p *QueryPlan) coreOptions(st core.Strategy) core.Options {
	return core.Options{
		Strategy:       st,
		TargetReducers: p.opts.targetReducers,
		Buckets:        p.Chosen.Buckets,
		UseCycleCQs:    p.opts.cycleCQs,
		Seed:           p.opts.seed,
		AdaptiveReplan: p.opts.adaptive,
		SkewThreshold:  p.opts.resolvedSkewThreshold(),
	}
}

// runCore executes a CQ-based strategy through internal/core at exactly
// the bucket/share configuration the plan predicts.
func runCore(ctx context.Context, d *strategyDef, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	return core.EnumerateStream(ctx, p.graph, p.sample, p.coreOptions(d.coreStrategy), p.opts.engineConfig(), sink)
}

// runDecomposed executes the Theorem 6.1 conversion with the optimal
// decomposition at the plan's bucket count.
func runDecomposed(ctx context.Context, _ *strategyDef, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	return core.EnumerateDecomposedStream(ctx, p.graph, p.sample, nil, p.coreOptions(core.BucketOriented), p.opts.engineConfig(), sink)
}

// tripleSink adapts an instance sink to the node triples the triangle
// algorithms emit.
func tripleSink(sink func([]Node) bool) func([3]Node) bool {
	return func(t [3]Node) bool { return sink([]Node{t[0], t[1], t[2]}) }
}

// runTriangle executes one of the Section 2 triangle algorithms and adapts
// its result into the unified Result shape.
func runTriangle(ctx context.Context, d *strategyDef, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	tr, err := d.tri.run(ctx, p.graph, p.Chosen.Buckets, p.opts.seed, p.opts.engineConfig(), tripleSink(sink))
	if err != nil {
		return nil, err
	}
	return &Result{
		Count: tr.Metrics.Outputs,
		Jobs: []JobStats{{
			Label:                fmt.Sprintf("%v b=%d", p.Strategy, tr.Buckets),
			Shares:               uniformIntShares(3, tr.Buckets),
			PredictedCommPerEdge: p.Chosen.CommPerEdge,
			OptimalCommPerEdge:   p.Chosen.CommPerEdge,
			Metrics:              tr.Metrics,
			ObservedSkew:         tr.Metrics.Skew(),
		}},
	}, nil
}

// runTwoRound executes the cascade baseline and adapts its per-round
// metrics into one JobStats entry per round. Under WithAdaptive the cascade
// is resumable mid-query: after round 1 (the wedge join), the observed
// reducer skew is compared against the threshold, and a breach abandons
// round 2 in favor of the one-round bucket-ordered algorithm at the plan's
// probed configuration — the remaining work re-planned at the cheapest
// observable point, before the wedge relation is shipped again.
func runTwoRound(ctx context.Context, _ *strategyDef, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	cfg := p.opts.engineConfig()
	var afterRound1 func(mapreduce.Metrics, int64) bool
	if p.opts.adaptive {
		threshold := p.opts.resolvedSkewThreshold()
		afterRound1 = func(round1 mapreduce.Metrics, _ int64) bool {
			return round1.Skew() <= threshold
		}
	}
	tris := tripleSink(sink)
	tr, err := tworound.TrianglesHookContext(ctx, p.graph, cfg, tris, afterRound1)
	if err != nil {
		return nil, err
	}
	res := &Result{Count: tr.Round2.Outputs}
	m := float64(p.graph.NumEdges())
	for i, round := range tr.Chain.Rounds {
		predicted := 2.0 // round 1: each edge plays two roles
		if i == 1 && m > 0 {
			predicted = float64(tr.Wedges)/m + 1 // wedges + the edge relation
		}
		res.Jobs = append(res.Jobs, JobStats{
			Label:                round.Name,
			PredictedCommPerEdge: predicted,
			OptimalCommPerEdge:   predicted,
			Metrics:              round.Metrics,
			ObservedSkew:         round.Metrics.Skew(),
		})
	}
	if !tr.Abandoned {
		return res, nil
	}

	// Mid-query re-plan: round 1's loads proved skewed, so the wedges are
	// discarded and the whole query runs as the one-round Section 2.3
	// algorithm instead (identical triangle set; only the configuration
	// changed). The round-1 stats stay in Jobs so the switch is auditable.
	b := p.fallbackTriangleBuckets()
	tb, err := triangle.BucketOrderedContext(ctx, p.graph, b, p.opts.seed, cfg, tris)
	if err != nil {
		return nil, err
	}
	res.Count = tb.Metrics.Outputs
	res.Jobs = append(res.Jobs, JobStats{
		Label:                fmt.Sprintf("replanned from skew %.2f → %v b=%d", res.Jobs[0].ObservedSkew, StrategyTriangleBucketOrdered, tb.Buckets),
		Shares:               uniformIntShares(3, tb.Buckets),
		PredictedCommPerEdge: triangle.BucketOrderedCommPerEdge(tb.Buckets),
		OptimalCommPerEdge:   triangle.BucketOrderedCommPerEdge(tb.Buckets),
		Metrics:              tb.Metrics,
		ObservedSkew:         tb.Metrics.Skew(),
		Replanned:            true,
	})
	return res, nil
}

// fallbackTriangleBuckets picks the bucket count the cascade's mid-query
// re-plan switches to: the plan's triangle-bucket-ordered candidate (probe-
// informed under WithAdaptive), or the Theorem 4.2 derivation if the
// candidate is somehow absent.
func (p *QueryPlan) fallbackTriangleBuckets() int {
	for _, c := range p.Candidates {
		if c.Strategy == StrategyTriangleBucketOrdered && c.Viable && c.Buckets > 0 {
			return c.Buckets
		}
	}
	return triangle.BucketsForReducers(int64(p.opts.targetReducers), triangle.BucketOrderedReducers)
}
