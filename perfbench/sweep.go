package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/vm"
)

// sweepGolden holds the full paper sweep; every record a draw produces
// must equal the line with the same key byte for byte.
const sweepGolden = "BENCH_sweep.json"

// sweepWorkload runs a seeded draw from sweep.PaperGrid through
// sweep.RunUnit on one worker, grouped by artifact. The operation is the
// whole draw, what a user of unisweep waits for; per-unit times are the
// per-layer sweep.unit_p50_ms and sweep.unit_p90_ms.
type sweepWorkload struct {
	groups [][]sweep.Unit // the current repetition's draw, one group per artifact
	runner *timingRunner
	recs   []sweep.Record // every repetition's records

	artBefore, artAfter artifact.Stats
	unitMS              []float64
	instructions        int64
	timedMS             float64
	sites               int
}

// timingRunner is the sweep.Runner the units run behind: the artifact
// cache, with a span around every call into it.
type timingRunner struct {
	arts   *artifact.Cache
	tr     *tracer
	parent int
	id     int64
}

func (r *timingRunner) BuildIR(src string, cfg core.Config) (*artifact.Artifact, error) {
	sp := r.tr.begin("artifact.build", r.parent, r.id)
	defer r.tr.end(sp)
	return r.arts.BuildIR(src, cfg)
}

func (r *timingRunner) Run(art *artifact.Artifact, cfg vm.Config) (*vm.Result, error) {
	sp := r.tr.begin("vm.run", r.parent, r.id)
	defer r.tr.end(sp)
	return r.arts.Run(art, cfg)
}

// draw picks 144 of the paper grid's 432 units: every (program, mode,
// sets, ways) cell once, each with a policy drawn at random. Cache shape
// drives simulation cost (small caches miss more, and misses cost more to
// simulate), so covering every shape makes a repetition's work the same
// for every seed; the seed changes only the policies. Groups are returned
// per artifact, programs in grid order, conventional first.
func draw(seed int64, rep int) ([][]sweep.Unit, error) {
	g := sweep.PaperGrid()
	units, err := g.Units()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(rep)))
	var groups [][]sweep.Unit
	index := make(map[string]int)
	// Units come in grid order, the policies of one cell adjacent.
	for i := 0; i < len(units); i += len(g.Policies) {
		u := units[i+rng.Intn(len(g.Policies))]
		art := u.Bench.Name + "/" + u.Mode
		j, ok := index[art]
		if !ok {
			j = len(groups)
			index[art] = j
			groups = append(groups, nil)
		}
		groups[j] = append(groups[j], u)
	}
	return groups, nil
}

// setup draws the repetition's units and compiles the twelve distinct
// artifacts into a fresh cache.
func (w *sweepWorkload) setup(e *env, rep int) error {
	groups, err := draw(e.seed, rep)
	if err != nil {
		return err
	}
	w.groups = groups
	w.runner = &timingRunner{arts: artifact.New(), tr: e.tr, parent: -1}
	for i, g := range groups {
		sp := e.tr.begin("core.compile", -1, int64(i))
		art, err := w.runner.arts.BuildIR(g[0].Bench.Source, g[0].CoreConfig())
		e.tr.end(sp)
		if err != nil {
			return err
		}
		if e.tr != nil {
			w.sites += art.Comp.Stats.Sites
		}
	}
	return nil
}

func (w *sweepWorkload) run(e *env, rep int) ([]float64, error) {
	w.artBefore = w.runner.arts.Stats()
	t0 := now()
	for _, g := range w.groups {
		for _, u := range g {
			u0 := now()
			sp := e.tr.begin("sweep.unit", -1, int64(len(w.recs)))
			w.runner.parent, w.runner.id = sp, int64(len(w.recs))
			rec, err := sweep.RunUnit(w.runner, u, nil)
			e.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("unit %s: %w", u.Key(), err)
			}
			w.recs = append(w.recs, rec)
			w.unitMS = append(w.unitMS, ms(now()-u0))
			w.instructions += rec.Instructions
		}
	}
	took := ms(now() - t0)
	w.timedMS += took
	w.artAfter = w.runner.arts.Stats()
	return []float64{took}, nil
}

// goldenLines maps each record key of the sweep artifact to its line.
func goldenLines(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSuffix(sc.Text(), ",")
		if !strings.HasPrefix(line, `{"key":`) {
			continue
		}
		var k struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal([]byte(line), &k); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[k.Key] = line
	}
	return out, sc.Err()
}

func (w *sweepWorkload) verify(e *env) (attempted, failed int, err error) {
	golden, err := goldenLines(sweepGolden)
	if err != nil {
		return 0, 0, err
	}
	var first error
	for _, r := range w.recs {
		attempted++
		line, err := r.MarshalLine()
		if err == nil && string(line) != golden[r.Key] {
			err = fmt.Errorf("record %s differs from %s", r.Key, sweepGolden)
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return attempted, failed, first
}

func (w *sweepWorkload) layers(e *env, spans []span, m map[string]float64) {
	lt := layerTimes(spans)
	m["sweep.units"] = float64(len(w.recs))
	m["sweep.unit_p50_ms"] = quantile(w.unitMS, 0.5)
	m["sweep.unit_p90_ms"] = quantile(w.unitMS, 0.9)
	m["sweep.sim_minstr_per_s"] = ratio(float64(w.instructions)/1e6, w.timedMS/1000)

	vmRun := lt["vm.run"]
	m["vm.run_ms"] = vmRun.totalMS
	m["vm.instructions"] = float64(w.instructions)
	m["vm.minstr_per_s"] = ratio(float64(w.instructions)/1e6, vmRun.totalMS/1000)

	// Compilation happens in set-up; figures are per set-up.
	compile := lt["core.compile"]
	setups := ratio(float64(compile.count), 12)
	m["core.compile_ms"] = ratio(compile.totalMS, setups)
	m["core.sites"] = ratio(float64(w.sites), setups)
	m["core.us_per_site"] = ratio(1000*compile.totalMS, float64(w.sites))

	st, b := w.artAfter, w.artBefore
	m["artifact.build_hit_ratio"] = ratio(float64(st.BuildHits-b.BuildHits), float64(st.BuildHits-b.BuildHits+st.BuildMisses-b.BuildMisses))
	m["artifact.run_hit_ratio"] = ratio(float64(st.RunHits-b.RunHits), float64(st.RunHits-b.RunHits+st.RunMisses-b.RunMisses))
	m["artifact.batch_replays"] = float64(st.BatchReplays - b.BatchReplays)
}
