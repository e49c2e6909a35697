package subgraphmr

import (
	"math"
	"sort"

	"subgraphmr/internal/core"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/shares"
	"subgraphmr/internal/tworound"
)

// This file implements WithAdaptive's pre-run probing: before committing
// to a strategy, the planner measures each viable candidate's actual
// reducer loads with a map-only pass over the exact mapper (and seed) the
// candidate would execute — bounded work: pairs are counted per key, never
// grouped or reduced. The closed-form estimates price uniform graphs; the
// probes see the hub that concentrates a power-law graph's edges on a few
// reducers, and the re-ranking makes such candidates pay for it.

// LoadProbe is one row of the adaptive planner's probe table: a candidate
// configuration and its observed loads. Bucket-style candidates are probed
// at raised bucket counts too ("split the hot reducers"), so a strategy can
// appear several times at different b.
type LoadProbe struct {
	// Strategy is the probed candidate's strategy.
	Strategy PlanStrategy
	// Buckets is the probed bucket count (bucket-style strategies).
	Buckets int `json:",omitempty"`
	// Shares is the probed share vector (share-based strategies).
	Shares []int `json:",omitempty"`
	// Comm is the observed communication: the exact key-value pairs the
	// configuration ships (for the cascade, the plan's exact 3m+W total).
	Comm int64
	// Keys is the number of reducers that would receive data (round 1
	// only, for the cascade).
	Keys int64
	// MaxLoad is the largest single reducer input observed.
	MaxLoad int64
	// MeanLoad is Comm / Keys (round-1 pairs over round-1 keys for the
	// cascade).
	MeanLoad float64
	// Skew is MaxLoad / MeanLoad.
	Skew float64
	// AdjustedCost is max(Comm, k × MaxLoad) — the skew-aware cost the
	// adaptive planner ranks by.
	AdjustedCost int64
	// Applied reports that this row's configuration was folded into its
	// candidate (for a bucket ladder, the winning rung).
	Applied bool
}

// adjustedCost is the makespan-style cost of observed loads under k reducer
// slots, in pair units: a balanced job costs its communication, a skewed
// one costs k × its straggler (the "curse of the last reducer" made
// explicit). Minimizing it trades total shipping against the hottest
// reducer the way wall-clock does.
func adjustedCost(comm, maxLoad, k int64) int64 {
	if s := k * maxLoad; s > comm {
		return s
	}
	return comm
}

// probeLadder returns the bucket counts to probe for a bucket-style
// candidate: the planned b plus doublings (capped at the encoding limit),
// stopping when the closed-form replication would exceed 16× the planned
// configuration's — a raised b splits hot reducers but multiplies
// communication, and rungs past that ratio cannot win the adjusted ranking
// at the skews the probes are meant to catch.
func probeLadder(b0 int, repl func(int) float64) []int {
	ladder := []int{b0}
	base := repl(b0)
	for _, mult := range []int{2, 4} {
		b := b0 * mult
		if b > shares.MaxIntShare {
			b = shares.MaxIntShare
		}
		if b <= ladder[len(ladder)-1] {
			break
		}
		if base > 0 && repl(b) > 16*base {
			break
		}
		ladder = append(ladder, b)
	}
	return ladder
}

// prober carries one Plan's probing state: the query, the engine config
// the map-only passes run under, and the probe table built so far.
type prober struct {
	q    *planQuery
	p    int
	k    int64
	cfg  mapreduce.Config
	rows []LoadProbe
	// bucket is the candidate whose Section 4.5 ladder ran first and
	// bucketRow its applied row: bucket-oriented and decomposed ship edges
	// through the identical mapper, so the other inherits the result
	// without another map pass.
	bucket    *Candidate
	bucketRow LoadProbe
}

// probeCandidates measures every viable candidate's reducer loads and
// folds the observations back in: Observed*/AdjustedCost are set, and
// bucket-style candidates may move to a raised b when the probes show a
// raised configuration wins the adjusted ranking. Candidates are mutated
// in place; the returned rows are the full probe table in planner order.
func probeCandidates(q *planQuery, cands []Candidate) []LoadProbe {
	o := q.o
	pr := &prober{q: q, p: q.s.P(), k: int64(o.targetReducers), cfg: o.engineConfig()}

	// With a forced strategy only that candidate's probe can change the
	// plan, so the others' map passes would be pure waste — except the
	// §2.3 candidate when the cascade is forced, whose probed b is the
	// mid-query replan target.
	shouldProbe := func(st PlanStrategy) bool {
		if o.strategy == StrategyAuto || st == o.strategy {
			return true
		}
		return o.strategy == StrategyTwoRound && st == StrategyTriangleBucketOrdered
	}

	// Probe cheapest-first and prune candidates that cannot win: a probed
	// candidate's adjusted cost never undercuts its shipped pairs, so once
	// some candidate achieves bestAdjusted, any candidate whose static
	// EstComm already exceeds it cannot beat it and its map passes would be
	// pure waste — the probing stays on the top candidates. Forced
	// strategies bypass the pruning (their probe is the plan).
	order := make([]int, 0, len(cands))
	for i := range cands {
		if cands[i].Viable && shouldProbe(cands[i].Strategy) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].EstComm < cands[order[b]].EstComm })
	var bestAdjusted int64 = math.MaxInt64

	for _, i := range order {
		c := &cands[i]
		if o.strategy == StrategyAuto && c.EstComm > bestAdjusted {
			continue
		}
		d := lookup(c.Strategy)
		d.probe(d, pr, c)
		if c.Probed && c.AdjustedCost < bestAdjusted {
			bestAdjusted = c.AdjustedCost
		}
	}
	return pr.rows
}

func (pr *prober) row(st PlanStrategy, buckets int, sh []int, ls mapreduce.LoadStats) LoadProbe {
	return LoadProbe{
		Strategy:     st,
		Buckets:      buckets,
		Shares:       sh,
		Comm:         ls.Pairs,
		Keys:         ls.Keys,
		MaxLoad:      ls.MaxLoad,
		MeanLoad:     ls.MeanLoad(),
		Skew:         ls.Skew(),
		AdjustedCost: adjustedCost(ls.Pairs, ls.MaxLoad, pr.k),
	}
}

// apply appends a single-configuration candidate's row, marked applied,
// and folds it into the candidate.
func (pr *prober) apply(c *Candidate, row LoadProbe) {
	row.Applied = true
	pr.rows = append(pr.rows, row)
	c.observe(row)
}

// ladder probes a bucket-style strategy at each bucket count of rungs
// (p-variable uniform shares), appends one row per rung, and marks and
// returns the rung with the lowest adjusted cost; ok is false when no
// rung could be probed.
func (pr *prober) ladder(st PlanStrategy, p int, rungs []int, load func(b int) (mapreduce.LoadStats, error)) (best LoadProbe, ok bool) {
	bi := -1
	for _, b := range rungs {
		ls, err := load(b)
		if err != nil {
			continue
		}
		pr.rows = append(pr.rows, pr.row(st, b, uniformIntShares(p, b), ls))
		if bi < 0 || pr.rows[len(pr.rows)-1].AdjustedCost < pr.rows[bi].AdjustedCost {
			bi = len(pr.rows) - 1
		}
	}
	if bi < 0 {
		return LoadProbe{}, false
	}
	pr.rows[bi].Applied = true
	return pr.rows[bi], true
}

// observe folds an applied probe row into its candidate: the estimates
// become the observed values (EstComm is now exact) while CommPerEdge
// stays the closed form of the applied configuration, matching what the
// executed job will report as its prediction.
func (c *Candidate) observe(pr LoadProbe) {
	c.ObservedComm = pr.Comm
	c.ObservedMaxLoad = pr.MaxLoad
	c.ObservedMeanLoad = pr.MeanLoad
	c.ObservedSkew = pr.Skew
	c.AdjustedCost = pr.AdjustedCost
	c.Probed = true
	c.EstComm = pr.Comm
	c.EstShuffleBytes = pr.Comm * planPairOverhead
}

// probeCoreBuckets probes a core bucket-style candidate (bucket-oriented
// or decomposed) along its b/2b/4b ladder — an explicit WithBuckets pins b
// — and folds the winning rung in, or inherits the other's ladder.
func probeCoreBuckets(_ *strategyDef, pr *prober, c *Candidate) {
	p := pr.p
	if bc := pr.bucket; bc != nil {
		c.Buckets, c.Shares = bc.Buckets, uniformIntShares(p, bc.Buckets)
		c.CommPerEdge, c.Reducers = bc.CommPerEdge, bc.Reducers
		c.observe(pr.bucketRow)
		return
	}
	rungs := []int{c.Buckets}
	if pr.q.o.buckets == 0 {
		rungs = probeLadder(c.Buckets, func(b int) float64 { return shares.BucketEdgeReplication(b, p) })
	}
	row, ok := pr.ladder(c.Strategy, p, rungs, func(b int) (mapreduce.LoadStats, error) {
		return core.ProbeBucketLoads(pr.q.g, p, b, pr.q.o.seed, pr.cfg)
	})
	if !ok {
		return
	}
	c.Buckets = row.Buckets
	c.Shares = uniformIntShares(p, row.Buckets)
	c.CommPerEdge = shares.BucketEdgeReplication(row.Buckets, p)
	c.Reducers = int64(shares.UsefulReducers(row.Buckets, p))
	c.observe(row)
	pr.bucket, pr.bucketRow = c, row
}

// probeVariable probes the Section 4.3 job at the candidate's shares.
func probeVariable(_ *strategyDef, pr *prober, c *Candidate) {
	ls, err := core.ProbeVariableLoads(pr.q.g, pr.p, pr.q.qs, c.Shares, pr.q.o.seed, pr.cfg)
	if err != nil {
		return
	}
	pr.apply(c, pr.row(c.Strategy, 0, c.Shares, ls))
}

// probeCQ probes every Section 4.1 job at its own shares and merges the
// loads into one row.
func probeCQ(_ *strategyDef, pr *prober, c *Candidate) {
	var merged mapreduce.LoadStats
	for j, q := range pr.q.qs {
		if j >= len(c.JobShares) {
			break
		}
		ls, err := core.ProbeCQLoads(pr.q.g, q, c.JobShares[j], pr.q.o.seed, pr.cfg)
		if err != nil {
			return
		}
		merged = merged.Merge(ls)
	}
	pr.apply(c, pr.row(c.Strategy, 0, nil, merged))
}

// probeTriangle probes a Section 2 triangle algorithm at its planned b
// (and, for the Section 2.3 algorithm, the raised rungs of its ladder).
func probeTriangle(d *strategyDef, pr *prober, c *Candidate) {
	t := d.tri
	rungs := []int{c.Buckets}
	if pr.q.o.buckets == 0 && t.ladder {
		rungs = probeLadder(c.Buckets, t.comm)
	}
	row, ok := pr.ladder(c.Strategy, 3, rungs, func(b int) (mapreduce.LoadStats, error) {
		return t.loads(pr.q.g, b, pr.q.o.seed, pr.cfg), nil
	})
	if !ok {
		return
	}
	c.Buckets = row.Buckets
	c.Shares = uniformIntShares(3, row.Buckets)
	c.CommPerEdge = t.comm(row.Buckets)
	c.Reducers = t.reducers(row.Buckets)
	c.observe(row)
}

// probeTwoRound prices the cascade from round 1's loads, which are the
// degree distribution — computed in O(n + m) without a map pass. Comm
// keeps the exact two-round total (3m + W); the straggler is round 1's
// hottest node (round 2's loads are unknowable before the wedges exist,
// which is what mid-query re-planning is for).
func probeTwoRound(_ *strategyDef, pr *prober, c *Candidate) {
	r1 := tworound.Round1LoadStats(pr.q.g)
	row := pr.row(c.Strategy, 0, nil, r1)
	row.Comm = c.EstComm // the exact 3m + W total, not just round 1's pairs
	row.AdjustedCost = adjustedCost(row.Comm, r1.MaxLoad, pr.k)
	pr.apply(c, row)
}
