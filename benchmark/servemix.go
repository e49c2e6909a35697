package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	sg "subgraphmr"
	"subgraphmr/internal/serve"
)

// serveKind is one request shape of the serve-mix.
type serveKind struct {
	graph, sample, strategy string
	stream                  bool
}

// serveKinds are sent in equal shares, like BenchmarkServeLoad's mix.
// Triangles go to the larger graph and squares and lollipops to the
// smaller one, so that every kind takes tens of milliseconds and the
// latency median falls among many requests rather than in the gap between
// a fast and a slow group.
var serveKinds = []serveKind{
	{"tri", "triangle", "bucket", false},
	{"tri", "triangle", "tri-bucket", true},
	{"tri", "triangle", "cascade", false},
	{"tri", "triangle", "variable", true},
	{"sq", "square", "bucket", false},
	{"sq", "square", "cq", false},
	{"sq", "square", "auto", true},
	{"sq", "lollipop", "bucket", false},
}

// serveGraphs are the two resident Gnm graphs.
var serveGraphs = []struct {
	name string
	n, m int
}{
	{"tri", 4000, 12000},
	{"sq", 400, 1400},
}

const (
	serveClients   = 2   // closed loop, one keep-alive connection each
	serveReducers  = 64  // k on every request
	servePlanCache = 128 // serve.Config.PlanCacheSize
	// Query popularity: the seed parameter is drawn Zipf(1.1) from 512
	// values, so kinds × seeds keys far exceed the plan cache and
	// misses keep recurring.
	serveSeeds = 512
	serveZipfS = 1.1
	// A phase sends at least this many requests, so that at least ten
	// samples lie beyond its p95.
	serveMinRequests = 200
)

// serveEnv is a running in-process server over loopback HTTP.
type serveEnv struct {
	graphs map[string]*sg.Graph
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	base   string
}

// startServe generates the graphs and starts the server: the set-up that
// setup_s times for serve-mix.
func startServe(seed int64, tr *tracer) (*serveEnv, error) {
	e := &serveEnv{graphs: map[string]*sg.Graph{}}
	t0 := time.Now()
	for i, g := range serveGraphs {
		e.graphs[g.name] = sg.Gnm(g.n, g.m, seed+int64(i))
	}
	tr.record("graph.gen", 0, 0, t0, time.Now())
	e.srv = serve.New(serve.Config{
		Graphs:        e.graphs,
		PoolBytes:     1 << 40, // unconstrained: measure the engine, not admission
		PlanCacheSize: servePlanCache,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.done = make(chan error, 1)
	go func() { e.done <- e.hs.Serve(ln) }()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(e.base + "/healthz")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return e, nil
}

// close shuts the HTTP server down and waits for it to stop serving.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.done
	e.srv.Close()
}

// serveRequest is one request the clients send.
type serveRequest struct {
	kind serveKind
	seed int
}

func (r serveRequest) url(base string) string {
	v := url.Values{}
	v.Set("graph", r.kind.graph)
	v.Set("sample", r.kind.sample)
	v.Set("strategy", r.kind.strategy)
	v.Set("k", fmt.Sprint(serveReducers))
	v.Set("seed", fmt.Sprint(r.seed))
	if r.kind.stream {
		v.Set("stream", "1")
	}
	return base + "/query?" + v.Encode()
}

func (r serveRequest) oracleKey() string { return r.kind.graph + "/" + r.kind.sample }

// serveResult is what one response reported.
type serveResult struct {
	ok       bool    // 200 with a summary
	rejected bool    // 429
	latMs    float64 // request send to last body byte
	count    int64   // summary count
	lines    int64   // instance lines (stream only)
	cacheHit bool
	planMs   float64 // body plan_ms/exec_ms (non-stream only)
	execMs   float64
}

// do sends one request and reads the whole body.
func (e *serveEnv) do(ctx context.Context, client *http.Client, r serveRequest) (serveResult, error) {
	var res serveResult
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url(e.base), nil)
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return res, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.latMs = ms(time.Since(t0))
	if err != nil {
		return res, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		res.rejected = true
		return res, nil
	default:
		return res, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}

	type summary struct {
		Instance []sg.Node `json:"instance"`
		Count    *int64    `json:"count"`
		Cache    string    `json:"cache"`
		PlanMs   float64   `json:"plan_ms"`
		ExecMs   float64   `json:"exec_ms"`
		Error    string    `json:"error"`
	}
	var last summary
	if !r.kind.stream {
		if err := json.Unmarshal(body, &last); err != nil {
			return res, fmt.Errorf("decode body: %w", err)
		}
		res.planMs, res.execMs = last.PlanMs, last.ExecMs
	} else {
		for line := range bytes.Lines(body) {
			last = summary{}
			if err := json.Unmarshal(line, &last); err != nil {
				return res, fmt.Errorf("decode stream line: %w", err)
			}
			if last.Instance != nil {
				res.lines++
			}
		}
	}
	if last.Error != "" || last.Count == nil {
		return res, fmt.Errorf("no summary (error %q)", last.Error)
	}
	res.ok, res.count, res.cacheHit = true, *last.Count, last.Cache == "hit"
	return res, nil
}

// checkServe compares one response with the expected count.
func checkServe(r serveRequest, res serveResult, want int64) error {
	if res.count != want {
		return incorrect("%s %s/%s counted %d, oracle says %d", r.kind.graph, r.kind.sample, r.kind.strategy, res.count, want)
	}
	if r.kind.stream && res.lines != res.count {
		return incorrect("%s %s/%s streamed %d instances, summary says %d", r.kind.graph, r.kind.sample, r.kind.strategy, res.lines, res.count)
	}
	return nil
}

// servePhase is one closed-loop phase of both clients.
type servePhase struct {
	results []serveResult
	elapsed time.Duration
	allocMB float64
}

func (p servePhase) okLatencies() []float64 {
	var out []float64
	for _, r := range p.results {
		if r.ok {
			out = append(out, r.latMs)
		}
	}
	return out
}

// serveLoad drives both clients for d. Each client draws its requests
// from its own generator seeded by (seed, phase, client). With tr set,
// every request gets a span.
func (e *serveEnv) serveLoad(ctx context.Context, d time.Duration, seed int64, phase int, want map[string]int64, tr *tracer, rep *report) (servePhase, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		out     servePhase
		firstEr error
		nextID  atomic.Int64
		sent    atomic.Int64
	)
	// A deck holds every kind once; each client deals its own reshuffled
	// decks, so every phase sends the kinds in equal shares and only the
	// order and the seeds vary.
	var deck []serveRequest
	for _, k := range serveKinds {
		deck = append(deck, serveRequest{kind: k})
	}
	a0 := heapAllocBytes()
	start := time.Now()
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(seed*1000 + int64(phase)*10 + int64(c)))
			zipf := rand.NewZipf(rng, serveZipfS, 1, serveSeeds-1)
			hand := slices.Clone(deck)
			for n := 0; sent.Add(1) <= serveMinRequests || time.Since(start) < d; n++ {
				if n%len(hand) == 0 {
					rng.Shuffle(len(hand), func(i, j int) { hand[i], hand[j] = hand[j], hand[i] })
				}
				r := hand[n%len(hand)]
				r.seed = int(zipf.Uint64())
				var sid int
				if tr != nil {
					sid = tr.begin("serve.request", int(nextID.Add(1)), 0)
				}
				res, err := e.do(ctx, client, r)
				if tr != nil {
					tr.finish(sid)
				}
				if err == nil && res.ok {
					err = checkServe(r, res, want[r.oracleKey()])
				}
				mu.Lock()
				rep.attempted++
				if err != nil || !res.ok {
					rep.failed++
				}
				if res.rejected {
					rep.rejected++
				}
				out.results = append(out.results, res)
				var ie *incorrectError
				switch {
				case firstEr != nil:
				case errors.As(err, &ie):
					firstEr = err
				case rep.failed > 100:
					firstEr = fmt.Errorf("%d requests failed, the last with %v", rep.failed, err)
				}
				stop := firstEr != nil
				mu.Unlock()
				if err != nil {
					fmt.Fprintf(os.Stderr, "request failed: %v\n", err)
				}
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.allocMB = float64(heapAllocBytes()-a0) / (1 << 20)
	return out, firstEr
}

// warmUp sends every kind once and checks the answers; the first answer
// also proves the gate rejects a wrong expected count.
func (e *serveEnv) warmUp(ctx context.Context, want map[string]int64) error {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i, k := range serveKinds {
		r := serveRequest{kind: k}
		res, err := e.do(ctx, client, r)
		if err == nil && !res.ok {
			err = fmt.Errorf("%s rejected", r.url(""))
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if i == 0 && checkServe(r, res, want[r.oracleKey()]+1) == nil {
			return errors.New("self-check: the correctness gate accepted a wrong expected count")
		}
		if err := checkServe(r, res, want[r.oracleKey()]); err != nil {
			return err
		}
	}
	return nil
}

func runServeMix(ctx context.Context, cfg config, tr *tracer) (report, error) {
	rep := newReport()
	var (
		env    *serveEnv
		setups []float64
		spent  time.Duration
	)
	for moreSetup(len(setups), spent) {
		if env != nil {
			env.close()
		}
		env = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = startServe(cfg.seed, tr); err != nil {
			return rep, err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer env.close()

	// One oracle per graph × sample, outside every timed span.
	want := map[string]int64{}
	for _, k := range serveKinds {
		r := serveRequest{kind: k}
		if _, ok := want[r.oracleKey()]; !ok {
			want[r.oracleKey()] = oracleCount(env.graphs[k.graph], sg.NamedSample(k.sample))
		}
	}

	if err := env.warmUp(ctx, want); err != nil {
		return rep, err
	}
	runtime.GC()

	if !cfg.trace {
		ph, err := env.serveLoad(ctx, cfg.seconds, cfg.seed, 0, want, nil, &rep)
		if err != nil {
			return rep, err
		}
		return rep, rep.setEndToEnd(setups, ph.okLatencies(), ph.elapsed, ph.allocMB)
	}

	base, err := env.serveLoad(ctx, cfg.seconds/2, cfg.seed, 0, want, nil, &rep)
	if err != nil {
		return rep, err
	}
	prof, err := startProfile()
	if err != nil {
		return rep, err
	}
	ph, err := env.serveLoad(ctx, cfg.seconds/2, cfg.seed, 1, want, tr, &rep)
	busy, perr := prof.stop()
	if err != nil {
		return rep, err
	}
	if perr != nil {
		return rep, perr
	}
	var plan, exec, overhead []float64
	var hits, oks float64
	for _, r := range ph.results {
		if !r.ok {
			continue
		}
		oks++
		if r.cacheHit {
			hits++
		}
		if r.execMs > 0 { // only non-stream bodies carry plan and exec times
			plan, exec = append(plan, r.planMs), append(exec, r.execMs)
			overhead = append(overhead, r.latMs-r.planMs-r.execMs)
		}
	}
	rep.setBusy(busy, len(ph.results))
	rep.set("trace.overhead_ratio", median(ph.okLatencies())/median(base.okLatencies()))
	rep.set("graph.gen_s", median(secondsOf(tr.millis("graph.gen"))))
	rep.set("serve.latency_ms_p95", quantile(base.okLatencies(), 0.95))
	rep.set("serve.plan_ms", median(plan))
	rep.set("serve.exec_ms", median(exec))
	rep.set("serve.overhead_ms", median(overhead))
	rep.set("serve.cache_hit_ratio", hits/max(oks, 1))
	rep.set("serve.rejected", float64(rep.rejected))
	return rep, nil
}

func secondsOf(millis []float64) []float64 {
	out := make([]float64, len(millis))
	for i, m := range millis {
		out[i] = m / 1000
	}
	return out
}
