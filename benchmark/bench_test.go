package main

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"subgraphmr/internal/cq.(*Evaluator).extend":          "cq",
		"subgraphmr/internal/graph.HashLess.func1":            "graph",
		"subgraphmr/internal/mapreduce.(*Job[...]).RunStream": "mapreduce",
		"subgraphmr.Run":             "subgraphmr",
		"slices.pdqsortCmpFunc[...]": "",
		"main.(*batch).query":        "",
		"runtime.gcBgMarkWorker":     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	busy := attribute([]cpuSample{
		{nanos: 3e9, stack: []string{"slices.pdqsortCmpFunc[...]", "subgraphmr/internal/graph.buildCSR", "subgraphmr/internal/cq.Eval"}},
		{nanos: 1e9, stack: []string{"runtime.mallocgc", "encoding/json.Unmarshal", "main.(*serveEnv).do"}},
		{nanos: 2e9, stack: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		{nanos: 4e9, stack: []string{"subgraphmr/internal/triangle.BucketOrderedContext", "subgraphmr.Run"}},
		{nanos: 5e9, stack: []string{"subgraphmr/internal/shares.ModelFromCQ", "subgraphmr.Plan"}},
	})
	want := map[string]float64{"graph": 3, layerBench: 1, layerRuntime: 2, "triangle": 4, "shares": 5}
	if len(busy) != len(want) {
		t.Fatalf("attribute = %v, want %v", busy, want)
	}
	for l, s := range want {
		if busy[l] != s {
			t.Errorf("busy[%s] = %v, want %v", l, busy[l], s)
		}
	}
}

func TestUnattributedShareCountsUndeclaredLayers(t *testing.T) {
	r := newReport()
	r.setBusy(map[string]float64{"cq": 4, "triangle": 2, "shares": 1, layerBench: 1, layerRuntime: 2}, 2)
	if got := r.metrics["profile.unattributed_share"]; got != 0.4 {
		t.Errorf("unattributed_share = %v, want 0.4 (shares, bench and runtime of 10 s)", got)
	}
	if got := r.metrics["triangle.busy_s"]; got != 1 {
		t.Errorf("triangle.busy_s = %v, want 1", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spun time.Duration
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "subgraphmr/benchmark.spin" || fn == "main.spin" {
				spun += time.Duration(s.nanos)
				break
			}
		}
	}
	if spun < 100*time.Millisecond {
		t.Fatalf("profile charged %v to spin over %d samples, want most of 300ms", spun, len(samples))
	}
}

func TestGateRejectsWrongCount(t *testing.T) {
	b := &batch{}
	var ie *incorrectError
	if err := b.checkCount(41, 42); !errors.As(err, &ie) {
		t.Fatalf("checkCount(41, 42) = %v, want an incorrect error", err)
	}
	if err := b.checkCount(42, 42); err != nil {
		t.Fatalf("checkCount(42, 42) = %v", err)
	}
	r := serveRequest{kind: serveKind{graph: "g", sample: "triangle", strategy: "bucket", stream: true}}
	if err := checkServe(r, serveResult{ok: true, count: 5, lines: 4}, 5); !errors.As(err, &ie) {
		t.Fatalf("stream with a missing instance line passed: %v", err)
	}
}
