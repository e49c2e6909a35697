package subgraphmr

import (
	"context"
	"testing"
)

// TestStrategyTableComplete pins the strategy table: every entry
// round-trips through String and ParseStrategy, no name is registered
// twice, and every concrete strategy has a pricer, a probe and an executor
// — a strategy cannot be half-registered.
func TestStrategyTableComplete(t *testing.T) {
	names := map[string]bool{}
	for _, d := range strategyTable {
		if got := d.st.String(); got != d.name {
			t.Errorf("%s: String() = %q", d.name, got)
		}
		if got, err := ParseStrategy(d.cli); err != nil || got != d.st {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", d.cli, got, err, d.st)
		}
		for _, n := range []string{d.name, "cli:" + d.cli} {
			if names[n] {
				t.Errorf("name %q registered twice", n)
			}
			names[n] = true
		}
	}
	if len(strategyTable) != int(StrategyTriangleBucketOrdered)+1 {
		t.Errorf("table has %d entries, want one per strategy (%d)", len(strategyTable), int(StrategyTriangleBucketOrdered)+1)
	}
	for st := StrategyBucketOriented; st <= StrategyTriangleBucketOrdered; st++ {
		d := lookup(st)
		if d == nil || d.price == nil || d.probe == nil || d.run == nil {
			t.Errorf("%v is not fully registered", st)
		}
	}
	if d := lookup(StrategyAuto); d == nil || d.price != nil || d.run != nil {
		t.Error("auto must be a name only: it chooses among the priced strategies")
	}
	if _, err := ParseStrategy("serial"); err == nil {
		t.Error("ParseStrategy accepted a serial baseline name")
	}
	if got := PlanStrategy(99).String(); got != "strategy(99)" {
		t.Errorf("unregistered strategy prints %q", got)
	}
}

// TestCountOnlyMetricsLocalEqualsDistributed pins that Run is Stream plus
// a sink on every path: under WithCountOnly a local run and a two-worker
// distributed run of every strategy report the same per-job Metrics
// (workers' metrics sum to the local run's), and each single-round job
// counts its instances in Metrics.Outputs, so summed Outputs == Count.
func TestCountOnlyMetricsLocalEqualsDistributed(t *testing.T) {
	g := Gnm(300, 1500, 9)
	want := CountTriangles(g)
	for _, st := range allPlanStrategies {
		t.Run(st.String(), func(t *testing.T) {
			opts := []Option{WithStrategy(st), WithTargetReducers(64), WithSeed(3), WithCountOnly()}
			local := runQuery(t, g, Triangle(), opts...)
			dist := runQuery(t, g, Triangle(), append(opts, WithDistributed(2))...)
			if local.Count != want || dist.Count != want {
				t.Fatalf("count local %d, distributed %d, want %d", local.Count, dist.Count, want)
			}
			if local.Instances != nil || dist.Instances != nil {
				t.Fatal("WithCountOnly collected instances")
			}
			jobs := dist.Jobs[:len(dist.Jobs)-1] // the last entry is the coordinator's summary
			if len(jobs) != len(local.Jobs) {
				t.Fatalf("distributed ran %d jobs, local %d", len(jobs), len(local.Jobs))
			}
			var outputs int64
			for i, lj := range local.Jobs {
				dm, lm := jobs[i].Metrics, lj.Metrics
				outputs += lm.Outputs
				if st == StrategyTwoRound && i == 1 {
					// Round 2 re-maps the broadcast edge relation on every
					// worker; only its outputs sum to the local run's.
					dm, lm = Metrics{Outputs: dm.Outputs}, Metrics{Outputs: lm.Outputs}
				}
				if dm != lm {
					t.Errorf("job %d (%s): distributed %+v, local %+v", i, lj.Label, dm, lm)
				}
			}
			if st != StrategyTwoRound && outputs != local.Count {
				t.Errorf("summed Outputs %d, Count %d", outputs, local.Count)
			}
		})
	}
}

// TestAdaptiveProbeMatchesExecution pins WithAdaptive's probes to what
// actually runs: for every strategy in the table, forced on a uniform Gnm
// graph, the applied probe row's Comm, Keys and MaxLoad equal the executed
// jobs' summed KeyValuePairs, summed DistinctKeys and largest
// MaxReducerInput. The cascade's probe is analytic: its Comm is the exact
// two-round total and its loads are round 1's, so Keys and MaxLoad are
// checked against round 1 only.
func TestAdaptiveProbeMatchesExecution(t *testing.T) {
	g := Gnm(300, 1500, 9)
	for _, d := range strategyTable {
		if d.price == nil {
			continue // auto chooses among the others
		}
		samples := map[string]*Sample{"triangle": Triangle()}
		if d.tri == nil && d.st != StrategyTwoRound {
			// Several CQs: cq-oriented runs one job per CQ.
			samples["square"] = Square()
		}
		for _, name := range []string{"triangle", "square"} {
			s := samples[name]
			if s == nil {
				continue
			}
			t.Run(d.name+"/"+name, func(t *testing.T) {
				plan, err := Plan(g, s, WithStrategy(d.st), WithTargetReducers(64), WithSeed(3), WithAdaptive(), WithCountOnly())
				if err != nil {
					t.Fatal(err)
				}
				var applied []LoadProbe
				for _, pr := range plan.Probes {
					if pr.Applied && pr.Strategy == d.st {
						applied = append(applied, pr)
					}
				}
				if len(applied) != 1 {
					t.Fatalf("want one applied %v probe row, got %+v", d.st, plan.Probes)
				}
				row := applied[0]
				res, err := Run(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				var comm, keys, maxLoad int64
				for _, j := range res.Jobs {
					if j.Replanned {
						t.Fatalf("uniform graph re-planned mid-query: %+v", j)
					}
					comm += j.Metrics.KeyValuePairs
					keys += j.Metrics.DistinctKeys
					maxLoad = max(maxLoad, j.Metrics.MaxReducerInput)
				}
				if d.st == StrategyTwoRound {
					if len(res.Jobs) != 2 {
						t.Fatalf("cascade ran %d jobs, want 2", len(res.Jobs))
					}
					r1 := res.Jobs[0].Metrics
					keys, maxLoad = r1.DistinctKeys, r1.MaxReducerInput
				}
				if row.Comm != comm || row.Keys != keys || row.MaxLoad != maxLoad {
					t.Errorf("probe b=%d shares=%v: comm/keys/maxload %d/%d/%d, executed %d/%d/%d",
						row.Buckets, row.Shares, row.Comm, row.Keys, row.MaxLoad, comm, keys, maxLoad)
				}
			})
		}
	}
}
