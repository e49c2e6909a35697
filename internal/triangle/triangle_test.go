package triangle

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

// entry is the shape of the three algorithms' streaming entry points.
type entry func(ctx context.Context, g *graph.Graph, b int, seed uint64, cfg mapreduce.Config, sink func([3]graph.Node) bool) (Result, error)

// collect runs one algorithm at seed 7 with a collecting sink.
func collect(run entry, g *graph.Graph, b int) (Result, [][3]graph.Node, error) {
	var tris [][3]graph.Node
	res, err := run(context.Background(), g, b, 7, mapreduce.Config{}, func(t [3]graph.Node) bool {
		tris = append(tris, t)
		return true
	})
	return res, tris, err
}

// runPartition, runMultiway and runBucketOrdered run one algorithm at seed
// 7 and return its metrics.
func runPartition(g *graph.Graph, b int) (Result, error) {
	res, _, err := collect(PartitionContext, g, b)
	return res, err
}

func runMultiway(g *graph.Graph, b int) (Result, error) {
	res, _, err := collect(MultiwayContext, g, b)
	return res, err
}

func runBucketOrdered(g *graph.Graph, b int) (Result, error) {
	res, _, err := collect(BucketOrderedContext, g, b)
	return res, err
}

type algo struct {
	name string
	run  entry
	minB int
}

func algos() []algo {
	return []algo{
		{"partition", PartitionContext, 3},
		{"multiway", MultiwayContext, 1},
		{"bucketordered", BucketOrderedContext, 1},
	}
}

// TestAllAlgorithmsExactlyOnce: every algorithm finds exactly the serial
// triangle set, each triangle once, across graphs and bucket counts.
func TestAllAlgorithmsExactlyOnce(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Gnm(40, 180, 1),
		graph.Gnm(25, 80, 2),
		graph.CompleteGraph(12),
		graph.PowerLaw(120, 8, 2.3, 3),
		graph.CycleGraph(9),
	}
	tri := sample.Triangle()
	for _, g := range graphs {
		want := map[string]bool{}
		serial.Triangles(g, func(a, b, c graph.Node) {
			want[tri.Key([]graph.Node{a, b, c})] = true
		})
		for _, al := range algos() {
			for _, b := range []int{al.minB, 4, 7} {
				if b < al.minB {
					continue
				}
				res, tris, err := collect(al.run, g, b)
				if err != nil {
					t.Fatal(err)
				}
				if res.Metrics.Outputs != int64(len(tris)) {
					t.Fatalf("%s b=%d: Outputs %d, sink saw %d", al.name, b, res.Metrics.Outputs, len(tris))
				}
				got := map[string]bool{}
				for _, tr := range tris {
					k := tri.Key([]graph.Node{tr[0], tr[1], tr[2]})
					if got[k] {
						t.Fatalf("%s b=%d: duplicate triangle %v", al.name, b, tr)
					}
					got[k] = true
				}
				if len(got) != len(want) {
					t.Fatalf("%s b=%d: %d triangles, serial %d (n=%d m=%d)",
						al.name, b, len(got), len(want), g.NumNodes(), g.NumEdges())
				}
				for k := range want {
					if !got[k] {
						t.Fatalf("%s b=%d: missing %s", al.name, b, k)
					}
				}
			}
		}
	}
}

// TestCommunicationExact: measured communication matches the closed forms.
// Multiway and BucketOrdered are deterministic per edge; Partition depends
// on how many edges have both ends in one group, computed exactly.
func TestCommunicationExact(t *testing.T) {
	g := graph.Gnm(60, 400, 5)
	m := int64(g.NumEdges())
	for _, b := range []int{3, 5, 10} {
		res, err := runMultiway(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := m * int64(3*b-2); res.Metrics.KeyValuePairs != want {
			t.Errorf("multiway b=%d: comm %d, want %d", b, res.Metrics.KeyValuePairs, want)
		}
		res, err = runBucketOrdered(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := m * int64(b); res.Metrics.KeyValuePairs != want {
			t.Errorf("bucketordered b=%d: comm %d, want %d", b, res.Metrics.KeyValuePairs, want)
		}

		res, err = runPartition(g, b)
		if err != nil {
			t.Fatal(err)
		}
		h := graph.NodeHash{Seed: 7, B: b}
		var want int64
		for _, e := range g.Edges() {
			if h.Bucket(e.U) == h.Bucket(e.V) {
				want += int64((b - 1) * (b - 2) / 2)
			} else {
				want += int64(b - 2)
			}
		}
		if res.Metrics.KeyValuePairs != want {
			t.Errorf("partition b=%d: comm %d, want %d", b, res.Metrics.KeyValuePairs, want)
		}
		// The expectation formula approximates the hash-dependent exact count.
		expect := PartitionCommPerEdge(b) * float64(m)
		if got := float64(res.Metrics.KeyValuePairs); math.Abs(got-expect) > 0.25*expect+float64(b*b) {
			t.Errorf("partition b=%d: comm %v far from expected %v", b, got, expect)
		}
	}
}

// TestReducerCounts: distinct keys never exceed the formula counts, and
// reach them on dense graphs.
func TestReducerCounts(t *testing.T) {
	dense := graph.CompleteGraph(40)
	b := 4
	res, _ := runPartition(dense, b)
	if res.Metrics.DistinctKeys != PartitionReducers(b) {
		t.Errorf("partition reducers = %d, want %d", res.Metrics.DistinctKeys, PartitionReducers(b))
	}
	res, _ = runMultiway(dense, b)
	if res.Metrics.DistinctKeys > MultiwayReducers(b) {
		t.Errorf("multiway reducers = %d > %d", res.Metrics.DistinctKeys, MultiwayReducers(b))
	}
	res, _ = runBucketOrdered(dense, b)
	if res.Metrics.DistinctKeys != BucketOrderedReducers(b) {
		t.Errorf("bucketordered reducers = %d, want %d", res.Metrics.DistinctKeys, BucketOrderedReducers(b))
	}
}

// TestFig2 reproduces the Fig. 2 table: with ~2^20 reducers Partition uses
// b=12 at 13.75 per edge, Section 2.2 uses b=6 (2^16 reducers) at 16 per
// edge, Section 2.3 uses b=10 at 10 per edge.
func TestFig2(t *testing.T) {
	if got := PartitionCommPerEdge(12); got != 13.75 {
		t.Errorf("Partition b=12: %v per edge, want 13.75", got)
	}
	if got := MultiwayCommPerEdge(6); got != 16 {
		t.Errorf("Multiway b=6: %v per edge, want 16", got)
	}
	if got := BucketOrderedCommPerEdge(10); got != 10 {
		t.Errorf("BucketOrdered b=10: %v per edge, want 10", got)
	}
	if PartitionReducers(12) != 220 {
		t.Errorf("C(12,3) = %d", PartitionReducers(12))
	}
	if MultiwayReducers(6) != 216 {
		t.Errorf("6^3 = %d", MultiwayReducers(6))
	}
	if BucketOrderedReducers(10) != 220 {
		t.Errorf("C(12,3) = %d", BucketOrderedReducers(10))
	}
}

// TestFig1Asymptotics: at equal reducer budget, Section 2.3 beats Partition
// by 3/2 and Section 2.2 by 3/∛6 ≈ 1.65.
func TestFig1Asymptotics(t *testing.T) {
	p, mw, bo := Fig1CommPerEdge(1e6)
	if r := p / bo; math.Abs(r-1.5) > 1e-9 {
		t.Errorf("partition/bucketordered = %v, want 1.5", r)
	}
	want := 3 / math.Cbrt(6)
	if r := mw / bo; math.Abs(r-want) > 1e-9 {
		t.Errorf("multiway/bucketordered = %v, want %v", r, want)
	}
}

func TestBucketsForReducers(t *testing.T) {
	if b := BucketsForReducers(1<<20, PartitionReducers); b < 12 {
		t.Errorf("partition buckets for 2^20 = %d, want >= 12", b)
	}
	if b := BucketsForReducers(1<<16, MultiwayReducers); b != 40 {
		t.Errorf("multiway buckets for 2^16 = %d, want 40 (40^3 = 64000 <= 65536)", b)
	}
	if b := BucketsForReducers(220, BucketOrderedReducers); b != 10 {
		t.Errorf("bucketordered buckets for 220 = %d, want 10", b)
	}
}

// TestConvertibility is the Section 2.3 / Theorem 6.1 claim: the total
// reducer computation stays within a constant factor of the serial
// algorithm's work as b grows.
func TestConvertibility(t *testing.T) {
	g := graph.Gnm(300, 2500, 11)
	serialWork := serial.Triangles(g, func(_, _, _ graph.Node) {})
	for _, b := range []int{2, 4, 8} {
		res, err := runBucketOrdered(g, b)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.Metrics.ReducerWork) / float64(serialWork)
		if ratio > 30 {
			t.Errorf("b=%d: reducer work %d is %.1fx serial %d — not convertible",
				b, res.Metrics.ReducerWork, ratio, serialWork)
		}
	}
}

// fragment cuts a reducer-like edge set out of g: a random subset of the
// edges in shuffled order, some reversed and some repeated, plus a
// self-loop — the shapes a reducer's grouped edge slab can take.
func fragment(g *graph.Graph, rng *rand.Rand) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		if rng.Intn(3) == 0 {
			continue
		}
		out = append(out, e)
		switch rng.Intn(8) {
		case 0:
			out = append(out, graph.Edge{U: e.V, V: e.U})
		case 1:
			out = append(out, e)
		}
	}
	if len(out) > 0 {
		out = append(out, graph.Edge{U: out[0].U, V: out[0].U})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestFragmentTrianglesMatchSerial: on each reducer fragment the local
// triangle listing is the serial algorithm run on that fragment — the
// same triangles in the same order, each once and id-sorted, for exactly
// the serial work. This pins per-reducer work to the serial algorithm,
// which is what the convertibility argument charges.
func TestFragmentTrianglesMatchSerial(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Gnm(60, 400, 1), graph.Gnm(200, 1500, 2),
		graph.PowerLaw(150, 8, 2.2, 3), graph.PowerLaw(300, 10, 2.1, 4),
		graph.CompleteGraph(12),
	}
	total := 0
	for gi, g := range graphs {
		rng := rand.New(rand.NewSource(int64(gi)))
		for trial := 0; trial < 4; trial++ {
			frag := fragment(g, rng)
			var want [][3]graph.Node
			wantWork := serial.Triangles(graph.FromEdges(g.NumNodes(), frag), func(a, b, c graph.Node) {
				want = append(want, [3]graph.Node{a, b, c})
			})
			var got [][3]graph.Node
			seen := map[[3]graph.Node]bool{}
			gotWork := trianglesIn(graph.RankedFromEdges(frag, nil), func(a, b, c graph.Node) {
				tri := [3]graph.Node{a, b, c}
				if !(a < b && b < c) {
					t.Fatalf("graph %d trial %d: triangle %v not id-sorted", gi, trial, tri)
				}
				if seen[tri] {
					t.Fatalf("graph %d trial %d: triangle %v emitted twice", gi, trial, tri)
				}
				seen[tri] = true
				got = append(got, tri)
			})
			if gotWork != wantWork {
				t.Errorf("graph %d trial %d: work %d, serial %d", gi, trial, gotWork, wantWork)
			}
			if len(got) != len(want) {
				t.Fatalf("graph %d trial %d: %d triangles, serial %d", gi, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("graph %d trial %d: triangle %d is %v, serial %v", gi, trial, i, got[i], want[i])
				}
			}
			total += len(want)
		}
	}
	if total == 0 {
		t.Fatal("no fragment held a triangle")
	}
}

// TestSkewReporting: on a heavy-tailed graph the engine reports max reducer
// input (the "curse of the last reducer" metric).
func TestSkewReporting(t *testing.T) {
	g := graph.PowerLaw(300, 10, 2.1, 9)
	res, err := runBucketOrdered(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxReducerInput <= 0 {
		t.Error("max reducer input not reported")
	}
	avg := float64(res.Metrics.KeyValuePairs) / float64(res.Metrics.DistinctKeys)
	if float64(res.Metrics.MaxReducerInput) < avg {
		t.Error("max reducer input below average — impossible")
	}
}

func TestValidation(t *testing.T) {
	g := graph.CompleteGraph(4)
	if _, err := runPartition(g, 2); err == nil {
		t.Error("Partition with b=2 should fail")
	}
	if _, err := runMultiway(g, 0); err == nil {
		t.Error("Multiway with b=0 should fail")
	}
	if _, err := runBucketOrdered(g, 0); err == nil {
		t.Error("BucketOrdered with b=0 should fail")
	}
}

// TestBucketOrderedBeatsOthersMeasured: at (approximately) equal reducer
// budgets, measured communication orders as Fig. 2 predicts.
func TestBucketOrderedBeatsOthersMeasured(t *testing.T) {
	g := graph.Gnm(80, 600, 13)
	k := int64(220)
	bPart := BucketsForReducers(k, PartitionReducers)       // 12
	bMulti := BucketsForReducers(k, MultiwayReducers)       // 6
	bBucket := BucketsForReducers(k, BucketOrderedReducers) // 10
	rp, _ := runPartition(g, bPart)
	rm, _ := runMultiway(g, bMulti)
	rb, _ := runBucketOrdered(g, bBucket)
	if !(rb.Metrics.KeyValuePairs < rp.Metrics.KeyValuePairs) {
		t.Errorf("bucketordered %d should beat partition %d",
			rb.Metrics.KeyValuePairs, rp.Metrics.KeyValuePairs)
	}
	if !(rb.Metrics.KeyValuePairs < rm.Metrics.KeyValuePairs) {
		t.Errorf("bucketordered %d should beat multiway %d",
			rb.Metrics.KeyValuePairs, rm.Metrics.KeyValuePairs)
	}
}
