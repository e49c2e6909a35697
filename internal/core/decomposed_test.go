package core

import (
	"context"
	"sort"
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

// enumerateDecomposed runs EnumerateDecomposedStream under cfg with a
// collecting sink and returns the result with Instances filled in.
func enumerateDecomposed(g *graph.Graph, s *sample.Sample, parts []sample.Part, opt Options, cfg mapreduce.Config) (*Result, error) {
	var got [][]graph.Node
	res, err := EnumerateDecomposedStream(context.Background(), g, s, parts, opt, cfg, func(phi []graph.Node) bool {
		got = append(got, phi)
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Instances = got
	return res, nil
}

func sortInstances(xs [][]graph.Node) {
	sort.Slice(xs, func(i, j int) bool {
		for k := range xs[i] {
			if xs[i][k] != xs[j][k] {
				return xs[i][k] < xs[j][k]
			}
		}
		return false
	})
}

// TestEnumerateDecomposedMatchesSerial checks the Theorem 6.1 conversion
// against the serial decomposition algorithm on several samples and
// graphs: identical canonical instance sets, each exactly once.
func TestEnumerateDecomposedMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":      graph.Gnm(60, 240, 3),
		"powerlaw": graph.PowerLaw(80, 6, 2.3, 5),
	}
	samples := map[string]*sample.Sample{
		"triangle": sample.Triangle(),
		"path3":    sample.Path(3),
		"square":   sample.Square(),
		"lollipop": sample.Lollipop(),
	}
	for gname, g := range graphs {
		for sname, s := range samples {
			want, _, err := serial.EnumerateByDecomposition(g, s, nil)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", gname, sname, err)
			}
			res, err := enumerateDecomposed(g, s, nil, Options{Buckets: 3, Seed: 11}, mapreduce.Config{Parallelism: 4})
			if err != nil {
				t.Fatalf("%s/%s mr: %v", gname, sname, err)
			}
			got := res.Instances
			sortInstances(got)
			sortInstances(want)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d instances, want %d", gname, sname, len(got), len(want))
			}
			for i := range want {
				for k := range want[i] {
					if got[i][k] != want[i][k] {
						t.Fatalf("%s/%s instance %d: %v, want %v", gname, sname, i, got[i], want[i])
					}
				}
			}
			if res.Count != int64(len(want)) {
				t.Errorf("%s/%s: Count = %d, want %d", gname, sname, res.Count, len(want))
			}
			if len(res.Jobs) != 1 || res.Jobs[0].Metrics.KeyValuePairs == 0 {
				t.Errorf("%s/%s: missing job stats: %+v", gname, sname, res.Jobs)
			}
		}
	}
}

// TestEnumerateDecomposedCountOnly checks the counting path: a sink that
// only counts reports the same Count as a collecting one.
func TestEnumerateDecomposedCountOnly(t *testing.T) {
	g := graph.Gnm(80, 400, 9)
	s := sample.Triangle()
	opt := Options{Buckets: 4, Seed: 2}
	full, err := enumerateDecomposed(g, s, nil, opt, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	counted, err := EnumerateDecomposedStream(context.Background(), g, s, nil, opt, mapreduce.Config{}, func([]graph.Node) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if counted.Count != full.Count || counted.Count != int64(len(full.Instances)) {
		t.Errorf("counted = %d, full = %d (%d instances)", counted.Count, full.Count, len(full.Instances))
	}
}

// TestEnumerateDecomposedRejectsBadParts checks decomposition validation.
func TestEnumerateDecomposedRejectsBadParts(t *testing.T) {
	g := graph.Gnm(20, 40, 1)
	s := sample.Triangle()
	if _, err := enumerateDecomposed(g, s, []sample.Part{
		{Kind: sample.IsolatedNode, Vars: []int{0}},
	}, Options{Buckets: 2}, mapreduce.Config{}); err == nil {
		t.Error("incomplete decomposition accepted")
	}
	disc, err := sample.New(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enumerateDecomposed(g, disc, nil, Options{Buckets: 2}, mapreduce.Config{}); err == nil {
		t.Error("disconnected sample accepted")
	}
}
