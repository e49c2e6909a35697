package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	sg "subgraphmr"
	"subgraphmr/internal/core"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/tworound"
)

// batchSpec is a batch workload: one query, run back to back by a single
// caller on a Gnm graph generated from the seed.
type batchSpec struct {
	n, m        int
	sample      func() *sg.Sample
	strategy    sg.PlanStrategy
	reducers    int   // WithTargetReducers; 0 keeps the default
	memBudget   int64 // WithMemoryBudget over a fresh spill dir; 0 = in memory
	materialize bool  // Run materializes instances instead of counting them
}

var batchWorkloads = map[string]batchSpec{
	"square-bucket": {
		n: 20000, m: 120000, sample: sg.Square,
		strategy: sg.StrategyBucketOriented, reducers: 64,
	},
	"triangle-cascade": {
		n: 200000, m: 1000000, sample: sg.Triangle,
		strategy: sg.StrategyTwoRound,
	},
	"triangle-spill": {
		n: 200000, m: 1000000, sample: sg.Triangle,
		strategy: sg.StrategyBucketOriented, reducers: 64,
		memBudget: 64 << 20, materialize: true,
	},
}

// probeQueries is how many traced queries get a map-only probe.
const probeQueries = 3

type batch struct {
	spec     batchSpec
	seed     int64
	g        *sg.Graph
	s        *sg.Sample
	opts     []sg.Option
	want     int64
	spillDir string
}

// queryStats is what one traced query reported about its jobs.
type queryStats struct {
	buckets int
	count   int64
	jobs    []mapreduce.Metrics
}

func runBatch(ctx context.Context, cfg config, spec batchSpec, tr *tracer) (report, error) {
	b := &batch{spec: spec, seed: cfg.seed, s: spec.sample()}
	rep := newReport()

	// Set-up: generate the graph several times and keep the last; the
	// median is setup_s.
	var (
		gens  []float64
		spent time.Duration
	)
	for moreSetup(len(gens), spent) {
		b.g = nil
		runtime.GC()
		t0 := time.Now()
		b.g = sg.Gnm(spec.n, spec.m, cfg.seed)
		d := time.Since(t0)
		spent += d
		gens = append(gens, d.Seconds())
		tr.record("graph.gen", 0, 0, t0, t0.Add(d))
	}

	b.opts = []sg.Option{sg.WithStrategy(spec.strategy), sg.WithSeed(uint64(cfg.seed))}
	if spec.reducers > 0 {
		b.opts = append(b.opts, sg.WithTargetReducers(spec.reducers))
	}
	if !spec.materialize {
		b.opts = append(b.opts, sg.WithCountOnly())
	}
	if spec.memBudget > 0 {
		dir, err := os.MkdirTemp(cfg.outDir, "spill-")
		if err != nil {
			return rep, fmt.Errorf("spill dir: %w", err)
		}
		defer os.RemoveAll(dir)
		b.spillDir = dir
		b.opts = append(b.opts, sg.WithMemoryBudget(spec.memBudget), sg.WithSpillDir(dir))
	}

	// The oracle runs once, outside every timed span.
	b.want = oracleCount(b.g, b.s)

	// Warm-up: one query outside the measurement, which also proves the
	// correctness gate rejects a wrong expected count.
	runtime.GC()
	warm, err := b.query(ctx)
	if err != nil {
		return rep, fmt.Errorf("warm-up query: %w", err)
	}
	if b.check(warm, b.want+1) == nil {
		return rep, errors.New("self-check: the correctness gate accepted a wrong expected count")
	}
	if err := b.check(warm, b.want); err != nil {
		return rep, err
	}

	if !cfg.trace {
		m, err := b.measure(ctx, cfg.seconds, &rep)
		if err != nil {
			return rep, err
		}
		return rep, rep.setEndToEnd(gens, m.lat, m.elapsed, m.allocMB)
	}

	// Traced run: half the time untraced (the overhead baseline), half
	// traced under a CPU profile.
	base, err := b.measure(ctx, cfg.seconds/2, &rep)
	if err != nil {
		return rep, err
	}
	prof, err := startProfile()
	if err != nil {
		return rep, err
	}
	var (
		lat   []float64
		stats []queryStats
	)
	start := time.Now()
	for q := 1; len(lat) == 0 || time.Since(start) < cfg.seconds/2; q++ {
		rep.attempted++
		qs, d, err := b.tracedQuery(ctx, q, tr)
		if err == nil {
			err = b.checkCount(qs.count, b.want)
		}
		var ie *incorrectError
		if errors.As(err, &ie) {
			prof.stop()
			return rep, err
		}
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "query %d failed: %v\n", q, err)
			if rep.failed > 100 {
				prof.stop()
				return rep, fmt.Errorf("too many failed queries, last: %w", err)
			}
			continue
		}
		lat = append(lat, d)
		stats = append(stats, qs)
	}
	busy, err := prof.stop()
	if err != nil {
		return rep, err
	}
	rep.setBusy(busy, len(lat))
	rep.set("trace.overhead_ratio", median(lat)/median(base.lat))
	rep.set("graph.gen_s", median(secondsOf(tr.millis("graph.gen"))))
	rep.set("subgraphmr.plan_ms", median(tr.millis("subgraphmr.plan")))
	rep.set("subgraphmr.run_ms", median(tr.millis("subgraphmr.run")))
	rep.set("subgraphmr.first_instance_ms", median(tr.millis("subgraphmr.first_instance")))
	rep.set("tworound.round1_ms", median(tr.millis("tworound.round1")))
	rep.set("tworound.round2_ms", median(tr.millis("tworound.round2")))
	if err := b.jobMetrics(&rep, stats, warm); err != nil {
		return rep, err
	}
	if spec.strategy == sg.StrategyBucketOriented {
		if err := b.probe(&rep, stats, tr); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// oracleCount is the serial instance count the engine must reproduce.
func oracleCount(g *sg.Graph, s *sg.Sample) int64 {
	if s.P() == 3 && s.NumEdges() == 3 {
		return sg.CountTriangles(g)
	}
	return int64(len(sg.BruteForce(g, s)))
}

// query is one untraced query through the public API: Plan then Run.
func (b *batch) query(ctx context.Context) (*sg.Result, error) {
	p, err := sg.Plan(b.g, b.s, b.opts...)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return sg.Run(ctx, p)
}

// check compares a Run result against the expected count.
func (b *batch) check(res *sg.Result, want int64) error {
	if b.spec.materialize && int64(len(res.Instances)) != res.Count {
		return incorrect("%d instances materialized, Count says %d", len(res.Instances), res.Count)
	}
	return b.checkCount(res.Count, want)
}

// checkCount compares a count against the expected one and requires the
// spill dir to be empty again.
func (b *batch) checkCount(got, want int64) error {
	if got != want {
		return incorrect("query counted %d instances, oracle says %d", got, want)
	}
	if b.spillDir != "" {
		left, err := os.ReadDir(b.spillDir)
		if err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
		if len(left) > 0 {
			return incorrect("%d spill files left after the query", len(left))
		}
	}
	return nil
}

// measurement is one untraced measuring phase.
type measurement struct {
	lat     []float64 // latency of each successful query, ms
	elapsed time.Duration
	allocMB float64 // heap bytes allocated during the phase, MiB
}

// measure runs queries back to back for d (at least one).
func (b *batch) measure(ctx context.Context, d time.Duration, rep *report) (measurement, error) {
	var m measurement
	a0 := heapAllocBytes()
	start := time.Now()
	for len(m.lat) == 0 || time.Since(start) < d {
		rep.attempted++
		t0 := time.Now()
		res, err := b.query(ctx)
		took := time.Since(t0)
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "query failed: %v\n", err)
			if rep.failed > 100 {
				return m, fmt.Errorf("too many failed queries, last: %w", err)
			}
			continue
		}
		if err := b.check(res, b.want); err != nil {
			return m, err
		}
		m.lat = append(m.lat, ms(took))
	}
	m.elapsed = time.Since(start)
	m.allocMB = float64(heapAllocBytes()-a0) / (1 << 20)
	return m, nil
}

// tracedQuery runs query q with spans around each call into a layer and
// returns its latency in ms. The cascade runs through
// tworound.TrianglesHookContext, the function Run dispatches it to, so its
// after-round-1 hook splits the two rounds; every other strategy runs
// through Stream.
func (b *batch) tracedQuery(ctx context.Context, q int, tr *tracer) (queryStats, float64, error) {
	var qs queryStats
	root := tr.begin("query", q, 0)
	ps := tr.begin("subgraphmr.plan", q, root)
	p, err := sg.Plan(b.g, b.s, b.opts...)
	tr.finish(ps)
	if err != nil {
		tr.finish(root)
		return qs, 0, fmt.Errorf("plan: %w", err)
	}
	qs.buckets = p.Chosen.Buckets

	var (
		mu    sync.Mutex
		first time.Time
	)
	sink := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if qs.count == 0 {
			first = time.Now()
		}
		qs.count++
		return true
	}
	rs := tr.begin("subgraphmr.run", q, root)
	t0 := time.Now()
	if b.spec.strategy == sg.StrategyTwoRound {
		r1 := tr.begin("tworound.round1", q, rs)
		r2 := 0
		res, err := tworound.TrianglesHookContext(ctx, b.g, mapreduce.Config{},
			func([3]sg.Node) bool { return sink() },
			func(mapreduce.Metrics, int64) bool {
				tr.finish(r1)
				r2 = tr.begin("tworound.round2", q, rs)
				return true
			})
		if r2 != 0 {
			tr.finish(r2)
		}
		if err != nil {
			tr.finish(rs)
			tr.finish(root)
			return qs, 0, err
		}
		for _, r := range res.Chain.Rounds {
			qs.jobs = append(qs.jobs, r.Metrics)
		}
	} else {
		res, err := sg.Stream(ctx, p, func([]sg.Node) bool { return sink() })
		if err != nil {
			tr.finish(rs)
			tr.finish(root)
			return qs, 0, err
		}
		if res.Count != qs.count {
			return qs, 0, incorrect("Stream reported %d instances, yield saw %d", res.Count, qs.count)
		}
		for _, j := range res.Jobs {
			qs.jobs = append(qs.jobs, j.Metrics)
		}
	}
	tr.finish(rs)
	if qs.count > 0 {
		tr.record("subgraphmr.first_instance", q, rs, t0, first)
	}
	return qs, ms(tr.finish(root)), nil
}

// jobMetrics fills the exact per-job counters (medians over the traced
// queries) and cross-checks the cascade's round pairs against the jobs
// Run reported for the warm-up query.
func (b *batch) jobMetrics(rep *report, stats []queryStats, warm *sg.Result) error {
	var keys, maxIn, skew, spilled, spillBytes, spillFiles, work, perInst []float64
	for _, qs := range stats {
		var k, mx, sk, sp, sb, sf, w float64
		for _, m := range qs.jobs {
			k += float64(m.DistinctKeys)
			mx = max(mx, float64(m.MaxReducerInput))
			sk = max(sk, m.Skew())
			sp += float64(m.SpilledPairs)
			sb += float64(m.SpillBytes)
			sf += float64(m.SpillFiles)
			w += float64(m.ReducerWork)
		}
		keys, maxIn, skew = append(keys, k), append(maxIn, mx), append(skew, sk)
		spilled, spillBytes, spillFiles = append(spilled, sp), append(spillBytes, sb), append(spillFiles, sf)
		if b.spec.strategy != sg.StrategyTwoRound { // only core jobs run the CQ evaluator
			work = append(work, w)
			if qs.count > 0 {
				perInst = append(perInst, w/float64(qs.count))
			}
		}
	}
	rep.set("mapreduce.distinct_keys", median(keys))
	rep.set("mapreduce.max_reducer_input", median(maxIn))
	rep.set("mapreduce.skew", median(skew))
	rep.set("mapreduce.spilled_pairs", median(spilled))
	rep.set("mapreduce.spill_bytes", median(spillBytes))
	rep.set("mapreduce.spill_files", median(spillFiles))
	rep.set("cq.work", median(work))
	rep.set("cq.work_per_instance", median(perInst))

	if b.spec.strategy != sg.StrategyTwoRound {
		return nil
	}
	if len(warm.Jobs) != 2 {
		return incorrect("cascade Run reported %d jobs, want 2", len(warm.Jobs))
	}
	for _, qs := range stats {
		for i, m := range qs.jobs {
			if want := warm.Jobs[i].Metrics.KeyValuePairs; m.KeyValuePairs != want {
				return incorrect("cascade round %d shipped %d pairs, Run's job says %d", i+1, m.KeyValuePairs, want)
			}
		}
	}
	rep.set("tworound.round1_pairs", float64(warm.Jobs[0].Metrics.KeyValuePairs))
	rep.set("tworound.round2_pairs", float64(warm.Jobs[1].Metrics.KeyValuePairs))
	return nil
}

// probe reruns the bucket mapper of the first traced queries as a
// map-only pass (core.ProbeBucketLoads, outside the profile) and requires
// its pairs, keys and hottest reducer to equal the job's own counters.
func (b *batch) probe(rep *report, stats []queryStats, tr *tracer) error {
	var pairs []float64
	for i, qs := range stats[:min(probeQueries, len(stats))] {
		if len(qs.jobs) != 1 {
			return incorrect("bucket-oriented query ran %d jobs, want 1", len(qs.jobs))
		}
		t0 := time.Now()
		ls, err := core.ProbeBucketLoads(b.g, b.s.P(), qs.buckets, uint64(b.seed), mapreduce.Config{})
		tr.record("core.map", i+1, 0, t0, time.Now())
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		m := qs.jobs[0]
		if ls.Pairs != m.KeyValuePairs || ls.Keys != m.DistinctKeys || ls.MaxLoad != m.MaxReducerInput {
			return incorrect("probe saw pairs=%d keys=%d max=%d, the job pairs=%d keys=%d max=%d",
				ls.Pairs, ls.Keys, ls.MaxLoad, m.KeyValuePairs, m.DistinctKeys, m.MaxReducerInput)
		}
		pairs = append(pairs, float64(ls.Pairs))
	}
	rep.set("core.map_ms", median(tr.millis("core.map")))
	rep.set("core.pairs_per_edge", median(pairs)/float64(b.g.NumEdges()))
	return nil
}
