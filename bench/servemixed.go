package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/arch"
	"repro/internal/rescache"
	"repro/internal/sched"
	"repro/internal/serve"
)

// The serve-mixed load, fixed: two closed-loop clients on two keep-alive
// connections against Workers: 2. Closed loop because the service's
// callers (archdemo -remote, scripts) each wait for their reply, and
// because an open-loop generator sharing two cores with the server would
// measure the Go scheduler.
const (
	serveClients = 2
	serveWorkers = 2
	coldShare    = 0.20 // never-seen specs; the rest repeat a completed one
	warmLag      = 64   // a warm draw references a spec issued at least this many requests earlier
	checkShare   = 0.05 // responses compared with a direct arch.RunSpec
)

// specSpace is one app's range of small sim specs. With 16 rank counts,
// four machines and two modes, fft has only 512 distinct specs; the shares
// are sized so every space lasts 64,000 cold requests (about 40 s here).
// Past that the small spaces run dry and newSpec falls back to mergesort.
type specSpace struct {
	app      string
	share    float64
	min, max int
	pow2     bool
}

var specSpaces = []specSpace{
	{"fft", 0.008, 3, 6, true}, // 8..64
	{"poisson", 0.016, 5, 12, false},
	{"cfd", 0.034, 8, 24, false},
	{"mergesort", 0.942, 2, 4096, false},
}

const maxSpecProcs = 16

// request is one POST /runs of the seeded sequence.
type request struct {
	spec   arch.Spec
	specID int  // index of the distinct spec
	cold   bool // never issued before
	check  bool // compare the response with a direct run
}

// requestGen draws the request sequence from the seed. It is the only
// consumer of the seed: the server receives spec JSON and nothing else.
type requestGen struct {
	rng      *rand.Rand
	machines []string
	seen     map[arch.Spec]bool
	specs    []arch.Spec // distinct specs in issue order
	issuedAt []int       // request index at which specs[i] was first issued
	eligible int         // specs[:eligible] were issued at least warmLag requests ago
	issued   int
}

func newRequestGen(seed int64) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(seed)), machines: arch.MachineNames(), seen: map[arch.Spec]bool{}}
}

func (g *requestGen) newSpec() arch.Spec {
	for try := 0; ; try++ {
		space := specSpaces[len(specSpaces)-1]
		if u := g.rng.Float64(); try < 16 { // then fall back to the largest space
			for _, s := range specSpaces {
				if u < s.share {
					space = s
					break
				}
				u -= s.share
			}
		}
		size := space.min + g.rng.Intn(space.max-space.min+1)
		if space.pow2 {
			size = 1 << size
		}
		modes := arch.ModeNames()
		sp := arch.Spec{App: space.app, Size: size, Procs: 1 + g.rng.Intn(maxSpecProcs), Backend: "sim",
			Machine: g.machines[g.rng.Intn(len(g.machines))], Mode: modes[g.rng.Intn(len(modes))]}
		if !g.seen[sp] {
			g.seen[sp] = true
			return sp
		}
	}
}

// next draws n more requests.
func (g *requestGen) next(n int) []request {
	out := make([]request, n)
	for i := range out {
		for g.eligible < len(g.specs) && g.issuedAt[g.eligible] <= g.issued-warmLag {
			g.eligible++
		}
		r := request{check: g.rng.Float64() < checkShare}
		if g.eligible == 0 || g.rng.Float64() < coldShare {
			r.cold, r.specID = true, len(g.specs)
			g.specs = append(g.specs, g.newSpec())
			g.issuedAt = append(g.issuedAt, g.issued)
		} else {
			// Zipf-like: cubing a uniform draw concentrates repeats on
			// the oldest specs, so a small hot set takes most warm hits.
			u := g.rng.Float64()
			r.specID = int(float64(g.eligible) * u * u * u)
		}
		r.spec = g.specs[r.specID]
		out[i] = r
		g.issued++
	}
	return out
}

// instance is one in-process archserve on a real loopback listener.
type instance struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startInstance(cache *rescache.Cache) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: serveWorkers, Cache: cache, Log: log.New(io.Discard, "", 0)})
	in := &instance{srv: srv, http: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { in.done <- in.http.Serve(ln) }()
	return in, nil
}

func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	if err := in.http.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-in.done; err != http.ErrServerClosed {
		return err
	}
	return in.srv.Shutdown(ctx)
}

// scrape reads the instance's Prometheus exposition into name -> value,
// label sets included in the name as exposed.
func (in *instance) scrape() (map[string]float64, error) {
	resp, err := http.Get(in.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// jobsLive reads the job-table size from /healthz.
func (in *instance) jobsLive() (float64, error) {
	resp, err := http.Get(in.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Jobs float64 `json:"jobs"`
	}
	return h.Jobs, json.NewDecoder(resp.Body).Decode(&h)
}

// Request classes.
const (
	classCold = iota
	classWarm
	classCoalesced
)

// reqSample is one completed request as the client saw it.
type reqSample struct {
	class      int
	ms         float64
	firstTouch bool // first request for its spec since the restart
}

// checked is a sampled response kept for the reference check.
type checked struct {
	specID  int
	summary string
	report  arch.Report
}

// serveRound is one round: roundReqs requests shared by the clients.
type serveRound struct {
	wall     float64
	traced   bool
	restart  bool // ran on the restarted instance
	samples  []reqSample
	checks   []checked
	failed   int
	timeouts int
}

// serveRun is the client side of one workload run.
type serveRun struct {
	clients []*serve.Client
	mu      sync.Mutex
	touched map[int]bool // specs requested since the restart
}

func newServeRun() *serveRun {
	sr := &serveRun{touched: map[int]bool{}}
	for i := 0; i < serveClients; i++ {
		sr.clients = append(sr.clients, &serve.Client{HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}})
	}
	return sr
}

func (sr *serveRun) closeIdle() {
	for _, c := range sr.clients {
		c.HTTP.CloseIdleConnections()
	}
}

// round issues reqs against base with every client in a closed loop.
func (sr *serveRun) round(base string, reqs []request, firstIndex int, tr *tracer, parent int) serveRound {
	rd := serveRound{traced: tr != nil}
	roundSpan := tr.begin("round", parent, firstIndex, 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // guards rd
	start := time.Now()
	for k, c := range sr.clients {
		c.Base = base
		wg.Add(1)
		go func(track int, c *serve.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s, chk, ok, timeout := sr.do(c, reqs[i], firstIndex+i, tr, roundSpan, track)
				mu.Lock()
				switch {
				case !ok:
					rd.failed++
					if timeout {
						rd.timeouts++
					}
				default:
					rd.samples = append(rd.samples, s)
					if reqs[i].check {
						rd.checks = append(rd.checks, chk)
					}
				}
				mu.Unlock()
			}
		}(k+1, c)
	}
	wg.Wait()
	rd.wall = time.Since(start).Seconds()
	tr.end(roundSpan)
	return rd
}

// do issues one request and waits for its terminal status: on the POST
// itself for a warm one, over the SSE feed for a cold one.
func (sr *serveRun) do(c *serve.Client, r request, id int, tr *tracer, parent, track int) (s reqSample, chk checked, ok, timeout bool) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	sr.mu.Lock()
	s.firstTouch = !sr.touched[r.specID]
	sr.touched[r.specID] = true
	sr.mu.Unlock()

	reqSpan := tr.begin("request", parent, id, track)
	defer tr.end(reqSpan)
	start := time.Now()
	sub := tr.begin("client.submit", reqSpan, id, track)
	st, err := c.Submit(ctx, r.spec)
	tr.end(sub)
	followed := false
	if err == nil && !st.Terminal() {
		followed = true
		fol := tr.begin("client.follow", reqSpan, id, track)
		st, err = c.Follow(ctx, st.ID, nil)
		tr.end(fol)
	}
	s.ms = ms(time.Since(start).Seconds())
	if err != nil || st.State != serve.StateDone || st.Report == nil {
		fmt.Printf("# FAIL request %d %+v: state %q err %v\n", id, r.spec, st.State, err)
		return s, chk, false, ctx.Err() == context.DeadlineExceeded
	}
	switch {
	case r.cold:
		s.class = classCold
	case followed:
		s.class = classCoalesced // its job was still in flight
	default:
		s.class = classWarm
	}
	return s, checked{r.specID, st.Summary, *st.Report}, true, false
}

// runServeMixed runs the serve-mixed workload.
func runServeMixed(cfg config, w workload) (*results, error) {
	res := newResults(w.name)
	cacheRoot, err := os.MkdirTemp(cfg.outDir, "rescache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheRoot)

	// Set-up, repeated on fresh cache dirs: open the cache, start the
	// server, run one untimed round. The last repeat's server, cache and
	// generator carry on into the timed window.
	var (
		gen    *requestGen
		cache  *rescache.Cache
		in     *instance
		sr     *serveRun
		setups []float64
	)
	stop := func() error {
		if in == nil {
			return nil
		}
		sr.closeIdle()
		err := in.stop()
		in = nil
		return err
	}
	defer stop() //nolint:errcheck // error paths only; the success path checks it below
	for rep := 0; rep < cfg.setupReps; rep++ {
		if err := stop(); err != nil {
			return nil, err
		}
		start := time.Now()
		gen = newRequestGen(cfg.seed)
		if cache, err = rescache.Open(filepath.Join(cacheRoot, strconv.Itoa(rep))); err != nil {
			return nil, err
		}
		if in, err = startInstance(cache); err != nil {
			return nil, err
		}
		sr = newServeRun()
		if warm := sr.round(in.base, gen.next(cfg.roundReqs), 0, nil, -1); warm.failed > 0 {
			return nil, fmt.Errorf("warm-up round had %d failed requests", warm.failed)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	workloadSpan := tr.begin("workload "+w.name, -1, 0, 0)

	// Timed window, with one restart on the same cache dir halfway: the
	// second half's warm hits are served from disk into an empty job table.
	var rounds []serveRound
	scrapes := map[string]float64{}
	addScrape := func() error {
		m, err := in.scrape()
		for k, v := range m {
			scrapes[k] += v
		}
		return err
	}
	var restartMs float64
	restarted := false
	var timed float64
	before := snapshotProc()
	for r := 0; r < cfg.minRounds || timed < cfg.seconds; r++ {
		if !restarted && r > 0 && timed >= cfg.seconds/2 {
			restarted = true
			if err := addScrape(); err != nil {
				return nil, err
			}
			start := time.Now()
			if err := stop(); err != nil {
				return nil, err
			}
			if in, err = startInstance(cache); err != nil {
				return nil, err
			}
			if _, err := in.jobsLive(); err != nil {
				return nil, err
			}
			restartMs = ms(time.Since(start).Seconds())
			sr.touched = map[int]bool{}
		}
		first := gen.issued
		var rd serveRound
		if r%2 == 0 {
			rd = sr.round(in.base, gen.next(cfg.roundReqs), first, tr, workloadSpan)
		} else {
			s := tr.begin("untraced round", workloadSpan, first, 0)
			rd = sr.round(in.base, gen.next(cfg.roundReqs), first, nil, -1)
			tr.end(s)
		}
		rd.restart = restarted
		rounds = append(rounds, rd)
		timed += rd.wall
	}
	after := snapshotProc()

	// Server-side state at the end, before probes add to it.
	if err := addScrape(); err != nil {
		return nil, err
	}
	jobsLive, err := in.jobsLive()
	if err != nil {
		return nil, err
	}
	goroutines := runtime.NumGoroutine()
	entries, diskBytes := walkCache(cache.Dir())

	// Reference check: sampled responses against a direct run of the same
	// spec. The direct runs' times also give the execute floor of a cold
	// request.
	refs := map[int]checked{}
	var directMs []float64
	for _, rd := range rounds {
		res.attempted += len(rd.samples) + rd.failed
		res.failed += rd.failed
		res.timeouts += rd.timeouts
		for _, got := range rd.checks {
			want, ok := refs[got.specID]
			if !ok {
				start := time.Now()
				summary, rep, err := arch.RunSpec(context.Background(), gen.specs[got.specID])
				if err != nil {
					return nil, fmt.Errorf("direct run of %+v: %w", gen.specs[got.specID], err)
				}
				directMs = append(directMs, ms(time.Since(start).Seconds()))
				want = checked{got.specID, summary, rep}
				refs[got.specID] = want
			}
			if got.summary != want.summary || got.report != want.report {
				res.failed++
				fmt.Printf("# FAIL spec %+v: served %q %+v, direct run %q %+v\n",
					gen.specs[got.specID], got.summary, got.report, want.summary, want.report)
			}
		}
	}

	// Timings come from rounds without span recording; see runRounds.
	var roundMs, tracedMs, cold, warm, warmTable, warmDisk, roundCold, roundWarm []float64
	var coalesced, plainDone int
	var plainWall float64
	for _, rd := range rounds {
		if rd.traced {
			tracedMs = append(tracedMs, ms(rd.wall))
			continue
		}
		roundMs = append(roundMs, ms(rd.wall))
		plainWall += rd.wall
		plainDone += len(rd.samples)
		nCold, nWarm := len(cold), len(warm)
		for _, s := range rd.samples {
			switch s.class {
			case classCold:
				cold = append(cold, s.ms)
			case classCoalesced:
				coalesced++
			case classWarm:
				warm = append(warm, s.ms)
				switch {
				case !rd.restart:
					warmTable = append(warmTable, s.ms)
				case s.firstTouch:
					warmDisk = append(warmDisk, s.ms)
				}
			}
		}
		roundCold = append(roundCold, median(cold[nCold:]))
		roundWarm = append(roundWarm, median(warm[nWarm:]))
	}
	reqPerS := float64(plainDone) / plainWall

	pre := metricPrefix(cfg)
	emitWindow(res, cfg, pre, setups, roundMs, roundCold, roundWarm, before, after, timed, len(rounds))
	res.emit(pre+"req_per_s", reqPerS, plainDone)
	res.emit(pre+"warm_ms_p99", percentile(warm, 0.99), len(warm))
	res.emit(pre+"cold_ms_p90", percentile(cold, 0.90), len(cold))
	if !cfg.traced {
		res.emit("warm_ms_p50", median(warm), len(warm))
		res.emit("cold_ms_p50", median(cold), len(cold))
	} else {
		res.emit("serve.warm_jobtable_ms_p50", median(warmTable), len(warmTable))
		res.emit("serve.warm_disk_ms_p50", median(warmDisk), len(warmDisk))
		res.emit("serve.cold_overhead_ms", median(cold)-median(directMs), len(directMs))
		res.emit("serve.coalesced_n", float64(coalesced), plainDone)
		res.emit("serve.cache_hits", scrapes["archserve_cache_hits_total"], 1)
		res.emit("serve.cache_misses", scrapes["archserve_cache_misses_total"], 1)
		res.emit("serve.jobs_done", scrapes[`archserve_jobs_total{state="done"}`], 1)
		res.emit("serve.jobs_failed", scrapes[`archserve_jobs_total{state="failed"}`], 1)
		res.emit("serve.exec_s_sum", scrapes["archserve_run_duration_seconds_sum"], 1)
		res.emit("serve.jobs_live_end", jobsLive, 1)
		res.emit("serve.goroutines_end", float64(goroutines), 1)
		res.emit("serve.heap_mb_end", float64(after.mem.HeapAlloc)/1e6, 1)
		res.emit("serve.restart_ms", restartMs, 1)
		res.emit("rescache.entries_end", float64(entries), 1)
		res.emit("rescache.disk_mb_end", float64(diskBytes)/1e6, 1)
		res.emit("obs.overhead_pct", (median(tracedMs)/median(roundMs)-1)*100, len(tracedMs))

		s := tr.begin("probe serve layers", workloadSpan, 0, 0)
		err := probeServeLayers(cfg, res, in, cache, gen, median(warm))
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if err := runProbes(cfg, w, res, tr, workloadSpan, 0, nil); err != nil {
			return nil, err
		}
	}

	if err := stop(); err != nil {
		return nil, err
	}
	if cfg.traced {
		tr.end(workloadSpan)
		tr.printSelfTimes(os.Stdout)
		if err := tr.writeChrome(tracePath(cfg, w.name)); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// walkCache counts the entry files under a cache dir and their bytes.
func walkCache(dir string) (entries int, size int64) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished temp file is not the benchmark's concern
		}
		if info, err := d.Info(); err == nil {
			entries++
			size += info.Size()
		}
		return nil
	})
	return entries, size
}

// probeServeLayers times each layer on the warm and cold request paths by
// calling it directly: the terms of warm_ms_p50 and cold_ms_p50.
func probeServeLayers(cfg config, res *results, in *instance, cache *rescache.Cache, gen *requestGen, warmMs float64) error {
	calls := cfg.probeCalls
	warmSpec := gen.specs[0]
	body, err := json.Marshal(warmSpec)
	if err != nil {
		return err
	}
	var code int
	handler := perCallNs(calls, func() {
		rec := httptest.NewRecorder()
		in.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(body)))
		code = rec.Code
	})
	if code != http.StatusOK {
		return fmt.Errorf("warm handler probe answered %d", code)
	}
	res.emit("serve.handler_warm_us", handler/1e3, calls*probeBatches)
	res.emit("serve.http_overhead_us", warmMs*1e3-handler/1e3, calls*probeBatches)

	var keyErr error
	res.emit("arch.canonical_us", perCallNs(calls, func() {
		_, keyErr = warmSpec.CanonicalJSON()
		_, keyErr = rescache.Key(warmSpec)
	})/1e3, calls*probeBatches)
	res.emit("rescache.key_us", perCallNs(calls, func() { _, keyErr = rescache.Key(warmSpec) })/1e3, calls*probeBatches)
	if keyErr != nil {
		return keyErr
	}

	floor := arch.Spec{App: "mergesort", Size: 2, Procs: 1, Backend: "sim"}
	var runErr error
	res.emit("arch.runspec_floor_us", perCallNs(calls, func() {
		_, _, runErr = arch.RunSpec(context.Background(), floor)
	})/1e3, calls*probeBatches)
	if runErr != nil {
		return runErr
	}

	var flight sched.Flight[int]
	var flightErr error
	n := 0
	res.emit("sched.flight_us", perCallNs(calls, func() {
		n++
		_, _, flightErr = flight.Do(context.Background(), strconv.Itoa(n), func() (int, error) { return 0, nil })
	})/1e3, calls*probeBatches)
	if flightErr != nil {
		return flightErr
	}

	// Cache reads against the workload's own entries; writes into a
	// scratch cache, so rescache.entries_end stays the workload's.
	keys := make([]string, min(len(gen.specs), calls))
	for i := range keys {
		if keys[i], err = rescache.Key(gen.specs[i]); err != nil {
			return err
		}
	}
	i, hits := 0, 0
	res.emit("rescache.get_hit_us", perCallNs(calls, func() {
		if _, ok := cache.Get(keys[i%len(keys)]); ok {
			hits++
		}
		i++
	})/1e3, calls*probeBatches)
	if hits != calls*probeBatches {
		return fmt.Errorf("rescache hit probe: %d of %d lookups hit", hits, calls*probeBatches)
	}
	missKey := strings.Repeat("0", 64)
	res.emit("rescache.get_miss_us", perCallNs(calls, func() { cache.Get(missKey) })/1e3, calls*probeBatches)

	scratchDir, err := os.MkdirTemp(cfg.outDir, "rescache-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratchDir)
	scratch, err := rescache.Open(scratchDir)
	if err != nil {
		return err
	}
	canon, err := warmSpec.Canonical()
	if err != nil {
		return err
	}
	entry := &rescache.Entry{Spec: canon, Summary: "probe", Created: time.Now().UTC()}
	var putErr error
	res.emit("rescache.put_us", perCallNs(calls, func() { putErr = scratch.Put(keys[0], entry) })/1e3, calls*probeBatches)
	return putErr
}
