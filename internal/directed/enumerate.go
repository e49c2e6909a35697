package directed

import (
	"context"
	"fmt"
	"sort"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/shares"
)

// Options configures the directed enumeration. It carries every execution
// knob the undirected strategies honor through core.Options and
// mapreduce.Config (asserted by the public options-parity test).
type Options struct {
	// Buckets is the hash bucket count b (default: derived from
	// TargetReducers, or 4 when that is unset too).
	Buckets int
	// TargetReducers, when Buckets is unset, picks the largest b whose
	// useful-reducer count C(b+p-1, p) stays within it (Theorem 4.2).
	TargetReducers int
	// Seed seeds the node hash.
	Seed uint64
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// Partitions is the number of shuffle partitions / reduce workers
	// (0 = Parallelism).
	Partitions int
	// MemoryBudget bounds, in bytes, the grouped arcs the engine's reduce
	// workers hold in memory; 0 means unlimited. See mapreduce.Config.
	MemoryBudget int64
	// SpillDir is the directory for spill run files ("" = system temp).
	SpillDir string
}

// buckets resolves the bucket count for a p-node pattern.
func (o Options) buckets(p int) int {
	if o.Buckets > 0 {
		return o.Buckets
	}
	if o.TargetReducers > 0 {
		return shares.BucketsForReducers(o.TargetReducers, p)
	}
	return 4
}

// Result carries the instances and job metrics.
type Result struct {
	Instances [][]graph.Node
	Metrics   mapreduce.Metrics
	Buckets   int
}

// Enumerate finds every instance of the pattern in g exactly once with one
// round of map-reduce, using the bucket-oriented scheme of Section 4.5
// adapted to directed labeled relations: each arc is shipped to the
// C(b+p-3, p-2) reducers whose bucket multiset contains its endpoint
// buckets; each reducer searches its fragment; an instance is emitted only
// by the reducer owning its bucket multiset, in canonical (automorphism-
// least) form.
func Enumerate(g *DiGraph, pt *DiPattern, opt Options) (*Result, error) {
	//lint:allow ctxhygiene ctx-less convenience wrapper; cancellable callers use EnumerateContext
	return EnumerateContext(context.Background(), g, pt, opt, nil)
}

// EnumerateContext is Enumerate under a context and an optional streaming
// sink: a nil sink materializes Result.Instances; a non-nil sink receives
// each instance instead (serialized, with backpressure; returning false
// stops the job early with a nil error). Cancelling ctx aborts the job and
// returns ctx.Err().
func EnumerateContext(ctx context.Context, g *DiGraph, pt *DiPattern, opt Options, sink func([]graph.Node) bool) (*Result, error) {
	if !pt.IsWeaklyConnected() {
		return nil, fmt.Errorf("directed: pattern must be weakly connected")
	}
	b := opt.buckets(pt.P())
	if b > 255 {
		return nil, fmt.Errorf("directed: bucket count %d exceeds 255", b)
	}
	p := pt.P()
	h := graph.NodeHash{Seed: opt.Seed + 0x6a09e667f3bcc909, B: b}

	mapper := func(a Arc, emit func(string, Arc)) {
		hu, hv := h.Bucket(a.From), h.Bucket(a.To)
		if p == 2 {
			emit(multisetKey(nil, hu, hv), a)
			return
		}
		// Distinct nondecreasing completions W give distinct multisets
		// W ∪ {hu, hv} (W is that multiset minus {hu, hv}), so every key
		// is emitted once without a dedup set.
		buckets := make([]int, p-2)
		var fill func(idx, min int)
		fill = func(idx, min int) {
			if idx == p-2 {
				emit(multisetKey(buckets, hu, hv), a)
				return
			}
			for w := min; w < b; w++ {
				buckets[idx] = w
				fill(idx+1, w)
			}
		}
		fill(0, 0)
	}
	plan := searchPlan(pt)
	reducer := func(ctx *mapreduce.Context, key string, arcs []Arc, emit func([]graph.Node)) {
		frag := buildFragment(arcs)
		ctx.AddWork(enumerateFragment(frag, pt, plan, func(phi []graph.Node) {
			instBuckets := make([]int, p)
			for i, u := range phi {
				instBuckets[i] = h.Bucket(u)
			}
			sort.Ints(instBuckets)
			if bucketString(instBuckets) != key {
				return
			}
			if pt.IsCanonical(phi) {
				emit(append([]graph.Node(nil), phi...))
			}
		}))
	}
	job := mapreduce.Job[Arc, string, Arc, []graph.Node]{
		Name:   fmt.Sprintf("directed bucket-oriented b=%d", b),
		Map:    mapper,
		Reduce: reducer,
	}
	cfg := mapreduce.Config{
		Parallelism:  opt.Parallelism,
		Partitions:   opt.Partitions,
		MemoryBudget: opt.MemoryBudget,
		SpillDir:     opt.SpillDir,
	}
	if sink != nil {
		metrics, err := job.RunStream(ctx, cfg, g.Arcs(), sink)
		if err != nil {
			return nil, err
		}
		return &Result{Metrics: metrics, Buckets: b}, nil
	}
	instances, metrics, err := job.RunContext(ctx, cfg, g.Arcs())
	if err != nil {
		return nil, err
	}
	return &Result{Instances: instances, Metrics: metrics, Buckets: b}, nil
}

// PredictedCommPerArc is the per-arc replication of the scheme:
// C(b+p-3, p-2), as in the undirected bucket-oriented method.
func PredictedCommPerArc(b, p int) float64 { return shares.BucketEdgeReplication(b, p) }

// fragment is the directed labeled subgraph a reducer receives.
type fragment struct {
	out map[graph.Node][]Arc
	in  map[graph.Node][]Arc
	set map[Arc]struct{}
}

func buildFragment(arcs []Arc) *fragment {
	f := &fragment{
		out: make(map[graph.Node][]Arc),
		in:  make(map[graph.Node][]Arc),
		set: make(map[Arc]struct{}, len(arcs)),
	}
	for _, a := range arcs {
		if _, dup := f.set[a]; dup {
			continue
		}
		f.set[a] = struct{}{}
		f.out[a.From] = append(f.out[a.From], a)
		f.in[a.To] = append(f.in[a.To], a)
	}
	return f
}

// planStep binds one pattern node: anchored on an earlier-bound node via
// one pattern arc, plus the checks against all earlier-bound nodes.
type planStep struct {
	node   int
	anchor int  // earlier node the candidate list comes from (-1 for first)
	viaOut bool // candidates from out-arcs of anchor's image (else in-arcs)
	viaLbl Label
	checks []PatternArc // pattern arcs between node and earlier nodes
}

// searchPlan orders the pattern nodes so each is adjacent (in either
// direction) to an earlier one — possible because the pattern is weakly
// connected.
func searchPlan(pt *DiPattern) []planStep {
	p := pt.P()
	bound := make([]bool, p)
	var plan []planStep
	// Start at the node with the most incident arcs.
	deg := make([]int, p)
	for _, a := range pt.arcs {
		deg[a.From]++
		deg[a.To]++
	}
	for len(plan) < p {
		best, bestScore := -1, -1
		for v := 0; v < p; v++ {
			if bound[v] {
				continue
			}
			score := deg[v]
			for _, a := range pt.arcs {
				if a.From == v && bound[a.To] || a.To == v && bound[a.From] {
					score += 100
				}
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		step := planStep{node: best, anchor: -1}
		for _, a := range pt.arcs {
			switch {
			case a.From == best && bound[a.To]:
				if step.anchor == -1 {
					step.anchor, step.viaOut, step.viaLbl = a.To, false, a.Label
				}
				step.checks = append(step.checks, a)
			case a.To == best && bound[a.From]:
				if step.anchor == -1 {
					step.anchor, step.viaOut, step.viaLbl = a.From, true, a.Label
				}
				step.checks = append(step.checks, a)
			}
		}
		bound[best] = true
		plan = append(plan, step)
	}
	return plan
}

// enumerateFragment backtracks over the plan, emitting every injective
// assignment whose pattern arcs all exist in the fragment. Returns
// candidates examined (reducer work).
func enumerateFragment(f *fragment, pt *DiPattern, plan []planStep, emit func([]graph.Node)) int64 {
	p := pt.P()
	phi := make([]graph.Node, p)
	var work int64
	var extend func(step int)
	extend = func(step int) {
		if step == p {
			emit(phi)
			return
		}
		st := plan[step]
		var candidates []graph.Node
		if st.anchor >= 0 {
			// Arcs of the anchor image with the right label and direction.
			if st.viaOut {
				for _, a := range f.out[phi[st.anchor]] {
					if a.Label == st.viaLbl {
						candidates = append(candidates, a.To)
					}
				}
			} else {
				for _, a := range f.in[phi[st.anchor]] {
					if a.Label == st.viaLbl {
						candidates = append(candidates, a.From)
					}
				}
			}
		} else {
			// First node: every fragment node (sources and destinations).
			seen := map[graph.Node]bool{}
			for u := range f.out {
				if !seen[u] {
					seen[u] = true
					candidates = append(candidates, u)
				}
			}
			for u := range f.in {
				if !seen[u] {
					seen[u] = true
					candidates = append(candidates, u)
				}
			}
		}
	cand:
		for _, c := range candidates {
			work++
			for s := 0; s < step; s++ {
				if phi[plan[s].node] == c {
					continue cand
				}
			}
			phi[st.node] = c
			for _, a := range st.checks {
				from, to := c, phi[a.To]
				if a.To == st.node {
					from, to = phi[a.From], c
				}
				if _, ok := f.set[Arc{from, to, a.Label}]; !ok {
					continue cand
				}
			}
			extend(step + 1)
		}
	}
	extend(0)
	return work
}

// BruteForce enumerates every instance of the pattern exactly once by
// exhaustive search over the whole graph — the directed oracle.
func BruteForce(g *DiGraph, pt *DiPattern) [][]graph.Node {
	f := buildFragment(g.Arcs())
	plan := searchPlan(pt)
	var out [][]graph.Node
	enumerateFragment(f, pt, plan, func(phi []graph.Node) {
		if pt.IsCanonical(phi) {
			out = append(out, append([]graph.Node(nil), phi...))
		}
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func multisetKey(completion []int, hu, hv int) string {
	all := make([]int, 0, len(completion)+2)
	all = append(all, completion...)
	all = append(all, hu, hv)
	sort.Ints(all)
	return bucketString(all)
}

func bucketString(buckets []int) string {
	b := make([]byte, len(buckets))
	for i, v := range buckets {
		b[i] = byte(v)
	}
	return string(b)
}
