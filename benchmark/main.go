// Command benchmark drives the repository's named workloads through the
// public API and the query server, checks every count against a serial
// oracle, and prints one JSON result line.
//
//	bash benchmark/run.sh --workload square-bucket --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics BENCHMARK.json declares;
// with --trace 1 it prints the per-layer metrics: it spends half the time
// untraced (the tracing-overhead baseline) and half with spans around its
// own calls into each module and a CPU profile whose samples are charged
// to the innermost subgraphmr frame. Spans are written to
// <CARGO_TARGET_DIR or .bench_build>/spans-<workload>-<seed>.jsonl.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"time"
)

// A run repeats its set-up at least minSetupReps times, and keeps going
// until the repetitions add up to setupBudget or reach maxSetupReps;
// setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = time.Second
)

// moreSetup reports whether another set-up repetition is due after reps
// repetitions that took spent in total.
func moreSetup(reps int, spent time.Duration) bool {
	return reps < minSetupReps || (reps < maxSetupReps && spent < setupBudget)
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

// report is what one run measured.
type report struct {
	attempted, failed, rejected int
	metrics                     map[string]float64
}

func newReport() report { return report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// setEndToEnd reports an untraced run's end-to-end metrics from its
// set-up times, the latencies of its successful queries (ms), and the
// length and heap allocations of its measured phase.
func (r *report) setEndToEnd(setup, lat []float64, elapsed time.Duration, allocMB float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup))
	r.set("latency_ms_p50", median(lat))
	r.set("qps", float64(len(lat))/elapsed.Seconds())
	r.set("success_ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	r.set("alloc_mb_per_query", allocMB/float64(r.attempted))
	r.set("peak_rss_mb", rss)
	return nil
}

// profiledLayers are the modules whose CPU time a traced run reports.
var profiledLayers = []string{"subgraphmr", "core", "mapreduce", "graph", "cq", "tworound", "triangle", "serve"}

// setBusy reports CPU seconds per query for each layer, from a profile
// covering n queries. profile.unattributed_share is the share of CPU
// charged to none of profiledLayers: the runtime, the benchmark's own code
// and any other repository package (planner helpers such as shares or
// perm, failpoint checks).
func (r *report) setBusy(busy map[string]float64, n int) {
	var total, layered float64
	for _, s := range busy {
		total += s
	}
	for _, l := range profiledLayers {
		r.set(l+".busy_s", busy[l]/float64(n))
		layered += busy[l]
	}
	r.set("runtime.gc_busy_s", busy[layerRuntime]/float64(n))
	if total > 0 {
		r.set("profile.unattributed_share", (total-layered)/total)
	}
}

// incorrectError marks a run whose outputs disagree with an oracle or a
// cross-check.
type incorrectError struct{ msg string }

func (e *incorrectError) Error() string { return "incorrect: " + e.msg }

func incorrect(format string, args ...any) error {
	return &incorrectError{fmt.Sprintf(format, args...)}
}

// profile is a CPU profile in progress.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU seconds per layer.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(samples), nil
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric names and units the run must print.
func declaredMetrics(trace bool) ([]metricSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if trace {
		return doc.PerLayer, nil
	}
	return doc.EndToEnd, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measuring time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.outDir = os.Getenv("CARGO_TARGET_DIR")
	if cfg.outDir == "" {
		cfg.outDir = ".bench_build"
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	declared, err := declaredMetrics(cfg.trace)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}

	tr := newTracer()
	ctx := context.Background()
	var rep report
	switch spec, ok := batchWorkloads[cfg.workload]; {
	case ok:
		rep, err = runBatch(ctx, cfg, spec, tr)
	case cfg.workload == "serve-mix":
		rep, err = runServeMix(ctx, cfg, tr)
	default:
		names := []string{"serve-mix"}
		for n := range batchWorkloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fail(fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names))
	}
	if cfg.trace && err == nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		err = tr.write(path)
	}
	var ie *incorrectError
	if errors.As(err, &ie) {
		printResult(resultOut{Correct: false, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]metricOut{}})
		return fail(err)
	}
	if err != nil {
		return fail(err)
	}

	out := resultOut{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, m := range declared {
		v, ok := rep.metrics[m.Name]
		if !ok {
			if !cfg.trace {
				return fail(fmt.Errorf("end-to-end metric %s was not measured", m.Name))
			}
			v = 0 // a layer this workload does not exercise
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	for name := range rep.metrics {
		if !slices.ContainsFunc(declared, func(m metricSpec) bool { return m.Name == name }) {
			return fail(fmt.Errorf("metric %s is not declared in BENCHMARK.json", name))
		}
	}
	printResult(out)
	return 0
}

func printResult(r resultOut) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	fmt.Println(string(b))
}
