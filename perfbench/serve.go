package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/vm"
)

// Traffic shape. The rate sits well below the knee of an in-process
// daemon on two cores, so the queue stays short and the latency
// percentiles measure the request path, not a growing backlog.
const (
	serveRate      = 60 // requests per second of schedule
	serveConns     = 2  // keep-alive connections, each carrying one request at a time
	serveWorkers   = 2
	servePool      = 24               // pooled small programs, warmed in set-up
	latencyLimitMS = 1000             // a response slower than this is not goodput
	smallMinBytes  = 1500             // size band of the small programs
	smallMaxBytes  = 3000             //
	exactBudget    = 200_000          // the daemon's per-request exact step budget
	bombSteps      = 50_000           // VM step budget of a budget bomb
	requestTimeout = 30 * time.Second // client-side bound on one request
)

// spin runs far past any budget bomb's step limit; the correct answer is
// the structured budget outcome.
const spin = `
void main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 100000000; i++) {
        acc = acc + i;
    }
    print(acc);
}`

// geometries are the cache variants simulate requests draw from; the
// first is the default the warm-up runs.
var geometries = []serve.CacheSpec{
	{Sets: 32, Ways: 2, Policy: "lru"},
	{Sets: 16, Ways: 2, Policy: "lru"},
	{Sets: 64, Ways: 1, Policy: "lru"},
	{Sets: 8, Ways: 4, Policy: "lru"},
	{Sets: 32, Ways: 2, Policy: "fifo"},
	{Sets: 16, Ways: 4, Policy: "random"},
}

// Request kinds.
const (
	kindBatch     = "batch"     // pooled program, next geometry of a seeded rotation
	kindBatch2    = "batch2"    // same program, another geometry, same due time: grouped
	kindDup       = "dup"       // the previous request again, same due time: coalesced
	kindRepeat    = "repeat"    // an earlier request again, later: deduplicated
	kindCold      = "cold"      // a program never seen: compile and store insert
	kindCheck     = "check"     // pooled program plus the check tier
	kindExact     = "exact"     // pooled program plus the exact tier
	kindBench     = "bench"     // a quick paper benchmark (round robin), geometry variant
	kindBenchWarm = "benchwarm" // a quick paper benchmark (round robin) at the warmed geometry
	kindBomb      = "bomb"      // a budget bomb
)

// cycle is the fixed request mix, repeated for the whole schedule, so every
// seed sends the same number of each kind; the seed picks programs and
// geometries. Batch2 and dup share their predecessor's due time.
var cycle = []string{
	kindBatch, kindBatch2, kindRepeat, kindCheck, kindBatch,
	kindDup, kindCold, kindBenchWarm, kindBatch, kindBatch2,
	kindRepeat, kindExact, kindBatch, kindDup, kindCold,
	kindBomb, kindBatch, kindBatch2, kindCheck, kindBench,
}

func paired(kind string) bool { return kind == kindBatch2 || kind == kindDup }

// serveWorkload drives an in-process daemon over loopback HTTP with an
// open-loop schedule. One operation is one request, timed from its due
// time.
type serveWorkload struct {
	srv    *serve.Server
	stop   context.CancelFunc
	served chan error
	base   string
	client *http.Client
	pool   []string // warmed small programs

	reqs    []*serve.Request
	kinds   []string
	sched   []time.Duration // due times, from the start of the schedule
	window  time.Duration   // length of the schedule
	resps   []*serve.Response
	errs    []error
	samples []sample

	statsBefore, statsAfter *serve.Snapshot
	span                    time.Duration // schedule start to its end or the last response, whichever is later
}

// smallPrograms draws n progen programs inside the small size band.
func smallPrograms(rng *rand.Rand, n int) []string {
	var out []string
	for len(out) < n {
		src := progen.Source(rng.Int63(), progen.DefaultKnobs())
		if len(src) >= smallMinBytes && len(src) < smallMaxBytes {
			out = append(out, src)
		}
	}
	return out
}

// setup starts a fresh daemon on a loopback port, builds the traffic
// schedule, and warms every pooled program and every benchmark the
// traffic uses with one simulate request at the default geometry.
func (w *serveWorkload) setup(e *env, rep int) error {
	if err := w.shutdown(); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Workers: serveWorkers, ExactStepBudget: exactBudget})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.srv, w.stop, w.served = srv, cancel, make(chan error, 1)
	go func() { w.served <- srv.ListenAndServe(ctx, "127.0.0.1:0") }()
	actx, acancel := context.WithTimeout(ctx, 10*time.Second)
	addr := srv.AwaitAddr(actx)
	acancel()
	if addr == nil {
		return fmt.Errorf("daemon did not bind a listener")
	}
	w.base = "http://" + addr.String()
	w.client = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}

	rng := rand.New(rand.NewSource(e.seed*15485863 + int64(rep)))
	w.pool = smallPrograms(rng, servePool)
	w.buildSchedule(rng, e.seconds)

	warm := append([]string(nil), w.pool...)
	for _, b := range quickBenches() {
		warm = append(warm, b.Source)
	}
	for _, src := range warm {
		rq := &serve.Request{Source: src, Want: []string{serve.TierCompile, serve.TierSimulate}, Cache: geometries[0]}
		resp, err := w.post(rq)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if resp.ErrorKind != "" {
			return fmt.Errorf("warm-up: %s: %s", resp.ErrorKind, resp.Error)
		}
	}
	return nil
}

// buildSchedule fixes every request of the repetition, and its due time,
// before the repetition starts.
func (w *serveWorkload) buildSchedule(rng *rand.Rand, seconds float64) {
	cycles := max(1, int(seconds*serveRate)/len(cycle))
	n := cycles * len(cycle)
	w.reqs, w.kinds = make([]*serve.Request, n), make([]string, n)
	w.resps, w.errs = make([]*serve.Response, n), make([]error, n)
	w.sched = make([]time.Duration, n)
	slots, colds := 0, 0
	for _, k := range cycle {
		if !paired(k) {
			slots++
		}
		if k == kindCold {
			colds++
		}
	}
	slot := time.Duration(len(cycle)) * time.Second / serveRate / time.Duration(slots)
	w.window = time.Duration(cycles*slots) * slot

	// Batch requests walk every (program, geometry) pair in a seeded
	// order, so each seed runs the same number of cold simulations.
	var combos [][2]int
	for p := range w.pool {
		for g := range geometries {
			combos = append(combos, [2]int{p, g})
		}
	}
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	cold := smallPrograms(rng, colds*cycles)
	benches := quickBenches()
	simulate := []string{serve.TierCompile, serve.TierSimulate}
	var batches, benchN int
	at := time.Duration(-1)
	for i := range w.reqs {
		kind := cycle[i%len(cycle)]
		if !paired(kind) {
			at++
		}
		geom := geometries[rng.Intn(len(geometries))]
		pooled := w.pool[rng.Intn(len(w.pool))]
		var rq *serve.Request
		switch kind {
		case kindBatch:
			c := combos[batches%len(combos)]
			batches++
			rq = &serve.Request{Source: w.pool[c[0]], Want: simulate, Cache: geometries[c[1]]}
		case kindBatch2:
			prev := w.reqs[i-1]
			rq = &serve.Request{Source: prev.Source, Want: simulate, Cache: geometries[(indexOf(prev.Cache)+1+rng.Intn(len(geometries)-1))%len(geometries)]}
		case kindDup:
			dup := *w.reqs[i-1]
			rq = &dup
		case kindRepeat:
			j := rng.Intn(i)
			for w.kinds[j] == kindBomb {
				j = rng.Intn(i)
			}
			prev := *w.reqs[j]
			rq = &prev
		case kindCold:
			rq = &serve.Request{Source: cold[0], Want: simulate, Cache: geom}
			cold = cold[1:]
		case kindCheck:
			rq = &serve.Request{Source: pooled, Want: append(simulate, serve.TierCheck), Cache: geom}
		case kindExact:
			rq = &serve.Request{Source: pooled, Mode: "conventional", Want: append(simulate, serve.TierExact), Cache: geom}
		case kindBench:
			rq = &serve.Request{Source: benches[benchN%len(benches)].Source, Want: simulate, Cache: geometries[1+rng.Intn(len(geometries)-1)]}
			benchN++
		case kindBenchWarm:
			rq = &serve.Request{Source: benches[benchN%len(benches)].Source, Want: simulate, Cache: geometries[0]}
		case kindBomb:
			rq = &serve.Request{Source: spin, MaxSteps: bombSteps, Want: []string{serve.TierSimulate}}
		}
		w.reqs[i], w.kinds[i], w.sched[i] = rq, kind, at*slot
	}
}

// quickBenches are the paper benchmarks whose simulation takes a few tens
// of milliseconds; towers and puzzle take hundreds, and one of them would
// hold a worker long enough to stall the connections behind it.
func quickBenches() []bench.Benchmark {
	var out []bench.Benchmark
	for _, b := range bench.All() {
		if b.Name != "towers" && b.Name != "puzzle" {
			out = append(out, b)
		}
	}
	return out
}

func indexOf(g serve.CacheSpec) int {
	for i, h := range geometries {
		if h == g {
			return i
		}
	}
	return 0
}

func (w *serveWorkload) post(rq *serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(rq)
	if err != nil {
		return nil, err
	}
	hr, err := w.client.Post(w.base+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	var resp serve.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decode response (HTTP %d): %w", hr.StatusCode, err)
	}
	return &resp, nil
}

func (w *serveWorkload) stats() (*serve.Snapshot, error) {
	hr, err := w.client.Get(w.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	var s serve.Snapshot
	if err := json.NewDecoder(hr.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	return &s, nil
}

// shutdown drains and stops the running daemon, if any, and waits for it.
func (w *serveWorkload) shutdown() error {
	if w.srv == nil {
		return nil
	}
	w.stop()
	err := <-w.served
	w.client.CloseIdleConnections()
	w.srv = nil
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	return nil
}

func (w *serveWorkload) run(e *env, rep int) ([]float64, error) {
	var err error
	if w.statsBefore, err = w.stats(); err != nil {
		return nil, err
	}
	start := now()
	w.samples = openLoop(realClock{}, start, w.sched, serveConns, func(c, i int) {
		w.resps[i], w.errs[i] = w.post(w.reqs[i])
	})
	// The region lasts the whole schedule even when the last response
	// comes early, so goodput is per second of schedule.
	realClock{}.sleepUntil(start + w.window)
	w.span = now() - start
	if w.statsAfter, err = w.stats(); err != nil {
		return nil, err
	}
	ops := make([]float64, len(w.samples))
	for i, s := range w.samples {
		ops[i] = ms(s.latency())
		if e.tr != nil {
			w.traceRequest(e.tr, int64(i), s, w.resps[i])
		}
	}
	return ops, nil
}

// traceRequest records the request as a client span with the phases the
// daemon reported as children, laid end to end from the send; the
// request's self time is then the HTTP and JSON path.
func (w *serveWorkload) traceRequest(tr *tracer, id int64, s sample, resp *serve.Response) {
	root := tr.add(span{Name: "serve.request", ID: id, Parent: -1, Start: s.sent, End: s.done})
	if resp == nil {
		return
	}
	at := s.sent
	for _, ph := range []struct {
		name string
		ns   int64
	}{
		{"serve.queue", resp.Timing.QueueNS},
		{"serve.compile", resp.Timing.CompileNS},
		{"serve.sim", resp.Timing.SimNS},
		{"serve.check", resp.Timing.CheckNS},
		{"serve.exact", resp.Timing.ExactNS},
	} {
		if ph.ns > 0 {
			d := time.Duration(ph.ns)
			tr.add(span{Name: ph.name, ID: id, Parent: root, Start: at, End: at + d})
			at += d
		}
	}
}

// referenceConfigs maps a request onto the configurations the daemon
// documents for it: the request's compiler fields, and its cache spec
// over the mode's default hardware.
func referenceConfigs(rq *serve.Request) (core.Config, cache.Config) {
	ccfg, hw := core.Config{Mode: core.Unified}, cache.DefaultConfig()
	if rq.Mode == "conventional" {
		ccfg.Mode, hw = core.Conventional, cache.ConventionalConfig()
	}
	if rq.Cache.Sets != 0 {
		hw.Sets = rq.Cache.Sets
	}
	if rq.Cache.Ways != 0 {
		hw.Ways = rq.Cache.Ways
	}
	if rq.Cache.Policy != "" {
		p, err := cache.ParsePolicy(rq.Cache.Policy)
		if err == nil {
			hw.Policy = p
		}
	}
	return ccfg, hw
}

// verify stops the daemon and checks every response: budget bombs must
// come back as the structured budget outcome, everything else OK, and
// every OK simulate answer must equal an in-process artifact run of the
// same request.
func (w *serveWorkload) verify(e *env) (attempted, failed int, err error) {
	if err := w.shutdown(); err != nil {
		return 0, 0, err
	}
	arts := artifact.New()
	type key struct {
		src   string
		mode  string
		cache serve.CacheSpec
	}
	ref := make(map[key]*serve.SimResult)
	var first error
	fail := func(i int, format string, args ...any) {
		failed++
		if first == nil {
			first = fmt.Errorf("request %d (%s): %s", i, w.kinds[i], fmt.Sprintf(format, args...))
		}
	}
	for i, rq := range w.reqs {
		attempted++
		resp := w.resps[i]
		switch {
		case w.errs[i] != nil:
			fail(i, "%v", w.errs[i])
			continue
		case w.kinds[i] == kindBomb:
			if resp.ErrorKind != serve.KindBudget {
				fail(i, "budget bomb answered %q, want %q", resp.ErrorKind, serve.KindBudget)
			}
			continue
		case resp.ErrorKind != "":
			fail(i, "%s: %s", resp.ErrorKind, resp.Error)
			continue
		case resp.Simulate == nil:
			fail(i, "no simulate result")
			continue
		}
		k := key{rq.Source, rq.Mode, rq.Cache}
		want, ok := ref[k]
		if !ok {
			ccfg, hw := referenceConfigs(rq)
			art, err := arts.Build(rq.Source, ccfg)
			if err != nil {
				fail(i, "reference compile: %v", err)
				continue
			}
			res, err := arts.Run(art, vm.Config{MaxSteps: rq.MaxSteps, Cache: hw})
			if err != nil {
				fail(i, "reference run: %v", err)
				continue
			}
			want = &serve.SimResult{Output: res.Output, Instructions: res.Instructions,
				Loads: res.Loads, Stores: res.Stores, Cache: res.CacheStats}
			ref[k] = want
		}
		if !reflect.DeepEqual(resp.Simulate, want) {
			fail(i, "simulate answer differs from the in-process run")
		}
	}
	return attempted, failed, first
}

func (w *serveWorkload) layers(e *env, spans []span, m map[string]float64) {
	var queue, compile, sim, check, exactMS, late, http []float64
	var good, deduped, degraded int
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "serve.request" {
			http = append(http, ms(self[i]))
		}
	}
	for i, resp := range w.resps {
		late = append(late, ms(w.samples[i].late()))
		if resp == nil {
			continue
		}
		t := resp.Timing
		queue = append(queue, ms(time.Duration(t.QueueNS)))
		for _, p := range []struct {
			v  *[]float64
			ns int64
		}{{&compile, t.CompileNS}, {&sim, t.SimNS}, {&check, t.CheckNS}, {&exactMS, t.ExactNS}} {
			if p.ns > 0 {
				*p.v = append(*p.v, ms(time.Duration(p.ns)))
			}
		}
		if resp.Deduped {
			deduped++
		}
		if len(resp.Degraded) > 0 {
			degraded++
		}
		ok := resp.ErrorKind == "" || (w.kinds[i] == kindBomb && resp.ErrorKind == serve.KindBudget)
		if ok && ms(w.samples[i].latency()) <= latencyLimitMS {
			good++
		}
	}
	n := float64(len(w.resps))
	m["serve.queue_ms_p50"] = quantile(queue, 0.5)
	m["serve.queue_ms_p90"] = quantile(queue, 0.9)
	m["serve.compile_ms_p50"] = quantile(compile, 0.5)
	m["serve.sim_ms_p50"] = quantile(sim, 0.5)
	m["serve.check_ms_p50"] = quantile(check, 0.5)
	m["serve.exact_ms_p50"] = quantile(exactMS, 0.5)
	m["serve.http_ms_p50"] = quantile(http, 0.5)
	m["serve.deduped_share"] = ratio(float64(deduped), n)
	m["serve.degraded_share"] = ratio(float64(degraded), n)
	m["serve.goodput_rps"] = ratio(float64(good), w.span.Seconds())
	m["loadgen.late_p90_ms"] = quantile(late, 0.9)
	if a, b := w.statsAfter, w.statsBefore; a != nil && b != nil {
		m["serve.coalesced"] = float64(a.Coalesced - b.Coalesced)
		m["serve.batch_flushes"] = float64(a.BatchFlushes - b.BatchFlushes)
		shed := func(s *serve.Snapshot) int64 {
			return s.Outcomes[serve.KindShed] + s.Outcomes[serve.KindOverload] + s.Outcomes[serve.KindDraining]
		}
		m["serve.shed"] = float64(shed(a) - shed(b))
		sa, sb := a.Artifacts, b.Artifacts
		m["artifact.build_hit_ratio"] = ratio(float64(sa.BuildHits-sb.BuildHits), float64(sa.BuildHits-sb.BuildHits+sa.BuildMisses-sb.BuildMisses))
		m["artifact.run_hit_ratio"] = ratio(float64(sa.RunHits-sb.RunHits), float64(sa.RunHits-sb.RunHits+sa.RunMisses-sb.RunMisses))
		m["artifact.batch_replays"] = float64(sa.BatchReplays - sb.BatchReplays)
	}
}
