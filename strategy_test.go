package subgraphmr

import "testing"

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
