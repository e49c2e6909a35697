package subgraphmr

import (
	"context"
	"fmt"

	"subgraphmr/internal/core"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/triangle"
)

// PlanStrategy names an execution strategy the planner can choose. The
// zero value StrategyAuto lets Plan pick the strategy with the lowest
// estimated communication cost for the given sample, data graph and
// reducer budget.
type PlanStrategy int

const (
	// StrategyAuto lets the planner choose (the default).
	StrategyAuto PlanStrategy = iota
	// StrategyBucketOriented is the Section 4.5 strategy: one hash, equal
	// buckets per variable, reducers keyed by nondecreasing bucket
	// multisets.
	StrategyBucketOriented
	// StrategyVariableOriented is the Section 4.3 strategy: one job for
	// all CQs with optimized shares.
	StrategyVariableOriented
	// StrategyCQOriented is the Section 4.1 strategy: one job per merged
	// CQ, each with its own optimal shares.
	StrategyCQOriented
	// StrategyDecomposed is the Theorem 6.1 conversion of the Theorem 7.2
	// serial decomposition algorithm to one map-reduce round.
	StrategyDecomposed
	// StrategyTwoRound is the conventional cascade of two-way joins
	// (triangle samples only) — the baseline the paper argues against.
	StrategyTwoRound
	// StrategyTrianglePartition is the Suri–Vassilvitskii Partition
	// algorithm (Section 2.1, triangle samples only).
	StrategyTrianglePartition
	// StrategyTriangleMultiway is the plain multiway join (Section 2.2,
	// triangle samples only).
	StrategyTriangleMultiway
	// StrategyTriangleBucketOrdered is the paper's improved triangle
	// algorithm (Section 2.3, triangle samples only).
	StrategyTriangleBucketOrdered
)

// strategyDef registers one PlanStrategy. Everything the package does per
// strategy — naming it, pricing it in Plan, probing it under WithAdaptive
// and executing it in Run/Stream — is a field here, so a strategy is added
// or audited in exactly one place.
type strategyDef struct {
	st PlanStrategy
	// name is the String/JSON form; cli is the ParseStrategy form (the
	// sgmr -strategy flag and the serve strategy= parameter).
	name, cli string
	// price costs the strategy for one query. It is nil only for
	// StrategyAuto, which chooses among the others.
	price func(d *strategyDef, q *planQuery) Candidate
	// probe measures a viable candidate's reducer loads with a map-only
	// pass and folds them into c (WithAdaptive).
	probe func(d *strategyDef, pr *prober, c *Candidate)
	// run executes a plan of this strategy, delivering every instance to
	// sink exactly once.
	run func(ctx context.Context, d *strategyDef, p *QueryPlan, sink func([]Node) bool) (*Result, error)
	// coreStrategy is the internal/core job of a CQ-based strategy.
	coreStrategy core.Strategy
	// tri describes a Section 2 triangle algorithm.
	tri *triangleAlgo
}

// triangleAlgo holds a Section 2 triangle algorithm's closed forms and its
// single streaming entry point.
type triangleAlgo struct {
	// minB is the smallest bucket count the algorithm accepts.
	minB     int
	comm     func(b int) float64
	reducers func(b int) int64
	// loads measures, map-only, the reducer loads of the job's own mapper
	// at b (WithAdaptive).
	loads func(g *graph.Graph, b int, seed uint64, cfg mapreduce.Config) mapreduce.LoadStats
	// ladder marks the linear-communication Section 2.3 algorithm, the only
	// one WithAdaptive probes at raised b: raising b for Partition or
	// Multiway grows shipping superlinearly for the same straggler relief.
	ladder bool
	run    func(ctx context.Context, g *graph.Graph, b int, seed uint64, cfg mapreduce.Config, sink func([3]graph.Node) bool) (triangle.Result, error)
}

// strategyTable registers every strategy in planner order: the order Plan
// prices candidates in, Explain lists them in, and Auto breaks cost ties
// by — so the paper's preferred bucket-oriented strategy wins equal-cost
// contests, and the decomposed conversion (identical shipping, different
// reducer algorithm) never beats it on communication.
var strategyTable = []strategyDef{
	{st: StrategyAuto, name: "auto", cli: "auto"},
	{st: StrategyBucketOriented, name: "bucket-oriented", cli: "bucket",
		price: bucketCandidate, probe: probeCoreBuckets, run: runCore, coreStrategy: core.BucketOriented},
	{st: StrategyVariableOriented, name: "variable-oriented", cli: "variable",
		price: variableCandidate, probe: probeVariable, run: runCore, coreStrategy: core.VariableOriented},
	{st: StrategyCQOriented, name: "cq-oriented", cli: "cq",
		price: cqCandidate, probe: probeCQ, run: runCore, coreStrategy: core.CQOriented},
	{st: StrategyDecomposed, name: "decomposed", cli: "mr-decompose",
		price: bucketCandidate, probe: probeCoreBuckets, run: runDecomposed},
	{st: StrategyTriangleBucketOrdered, name: "triangle-bucket-ordered", cli: "tri-bucket",
		price: triangleCandidate, probe: probeTriangle, run: runTriangle, tri: &triangleAlgo{
			minB: 1, ladder: true,
			comm: triangle.BucketOrderedCommPerEdge, reducers: triangle.BucketOrderedReducers,
			loads: triangle.BucketOrderedLoads, run: triangle.BucketOrderedContext,
		}},
	{st: StrategyTrianglePartition, name: "triangle-partition", cli: "tri-partition",
		price: triangleCandidate, probe: probeTriangle, run: runTriangle, tri: &triangleAlgo{
			minB: 3,
			comm: triangle.PartitionCommPerEdge, reducers: triangle.PartitionReducers,
			loads: triangle.PartitionLoads, run: triangle.PartitionContext,
		}},
	{st: StrategyTriangleMultiway, name: "triangle-multiway", cli: "tri-multiway",
		price: triangleCandidate, probe: probeTriangle, run: runTriangle, tri: &triangleAlgo{
			minB: 1,
			comm: triangle.MultiwayCommPerEdge, reducers: triangle.MultiwayReducers,
			loads: triangle.MultiwayLoads, run: triangle.MultiwayContext,
		}},
	{st: StrategyTwoRound, name: "two-round-cascade", cli: "cascade",
		price: twoRoundCandidate, probe: probeTwoRound, run: runTwoRound},
}

// lookup returns the table entry of st, or nil for an unregistered value.
func lookup(st PlanStrategy) *strategyDef {
	for i := range strategyTable {
		if strategyTable[i].st == st {
			return &strategyTable[i]
		}
	}
	return nil
}

func (st PlanStrategy) String() string {
	if d := lookup(st); d != nil {
		return d.name
	}
	return fmt.Sprintf("strategy(%d)", int(st))
}

// MarshalText renders the strategy name, so plans and results are readable
// when marshalled to JSON (cmd/sgmr -json).
func (st PlanStrategy) MarshalText() ([]byte, error) { return []byte(st.String()), nil }

// ParseStrategy maps a short strategy name — "auto", "bucket", "variable",
// "cq", "mr-decompose", "cascade", "tri-partition", "tri-multiway" or
// "tri-bucket", the vocabulary of the sgmr -strategy flag and the query
// service's strategy= parameter — to its PlanStrategy.
func ParseStrategy(name string) (PlanStrategy, error) {
	for _, d := range strategyTable {
		if d.cli == name {
			return d.st, nil
		}
	}
	return 0, fmt.Errorf("subgraphmr: unknown strategy %q", name)
}
