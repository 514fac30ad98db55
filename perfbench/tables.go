package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/replay"
)

// tablesGolden is `go run ./cmd/unibench -experiment all` as printed at the
// commit that introduced this benchmark: the tables must not change.
const tablesGolden = "perfbench/testdata/tables.golden"

// deadLRUSizes are the fully associative sizes E2 measures (as unibench).
var deadLRUSizes = []int{16, 32, 64, 128, 256}

// tablesWorkload renders the paper's result tables (unibench -experiment
// all) over the six benchmarks under both compilers. Its inputs are the
// paper's fixed benchmark set, so the seed is unused.
type tablesWorkload struct {
	geom      experiments.CacheGeometry
	base, opt []*experiments.Workload
	outputs   []programOutput // every set-up's program outputs, for the output check
	rendered  []string        // one rendering per repetition

	artBefore, artAfter artifact.Stats
	sites               int   // reference sites compiled by traced set-ups
	instructions        int64 // instructions executed by the last set-up
	probed              bool  // the replay probe ran (once per traced run)
}

type programOutput struct {
	name, compiler, unified, conventional, expected string
}

type tableCall struct {
	name string
	f    func(w *tablesWorkload) (fmt.Stringer, error)
}

// tableCalls are the experiments functions in unibench's -experiment all
// order, which is also the golden's order.
var tableCalls = []tableCall{
	{"fig5", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.Fig5(w.base, w.geom), nil }},
	{"fig5_opt", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.Fig5(w.opt, w.geom), nil }},
	{"deadlru", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.DeadLRU(w.base, deadLRUSizes) }},
	{"policies", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.Policies(w.base, w.geom) }},
	{"miller", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.Miller(w.base), nil }},
	{"singleuse", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.SingleUse(w.base), nil }},
	{"promotion", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.Promotion(w.geom) }},
	{"linesize", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.LineSize(w.base, w.geom) }},
	{"regs", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.RegPressure(w.geom) }},
	{"deadmode", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.DeadMode(w.base, w.geom) }},
	{"icache", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.ICache(w.geom) }},
	{"precision", func(w *tablesWorkload) (fmt.Stringer, error) { return experiments.Precision() }},
}

// setup is experiments.BuildAll for both compilers on a fresh package
// artifact cache, so no repetition reuses an earlier one's compilations,
// simulations or replay memos. A traced set-up compiles every program
// first, in its own spans, so BuildAll's own time is the VM and encoding.
func (w *tablesWorkload) setup(e *env, rep int) error {
	w.geom = experiments.PaperGeometry()
	w.base, w.opt = nil, nil
	experiments.Artifacts = artifact.New()
	if err := w.buildAll(e, rep); err != nil {
		return err
	}
	w.instructions = 0
	for _, wl := range append(append([]*experiments.Workload(nil), w.base...), w.opt...) {
		w.outputs = append(w.outputs, programOutput{wl.Bench.Name, wl.Compiler.String(),
			wl.UnifiedRes.Output, wl.ConventionalRes.Output, wl.Bench.Expected})
		w.instructions += wl.UnifiedRes.Instructions + wl.ConventionalRes.Instructions
	}
	if e.tr != nil && !w.probed {
		w.probed = true
		return w.replayProbe(e)
	}
	return nil
}

func (w *tablesWorkload) buildAll(e *env, rep int) error {
	sp := e.tr.begin("experiments.buildall", -1, int64(rep))
	defer e.tr.end(sp)
	if e.tr != nil {
		for _, stack := range []bool{true, false} {
			for _, b := range bench.All() {
				for _, mode := range []core.Mode{core.Unified, core.Conventional} {
					c := e.tr.begin("core.compile", sp, int64(rep))
					art, err := experiments.Artifacts.Build(b.Source, core.Config{Mode: mode, StackScalars: stack, Check: true})
					e.tr.end(c)
					if err != nil {
						return fmt.Errorf("%s: %w", b.Name, err)
					}
					w.sites += art.Comp.Stats.Sites
				}
			}
		}
	}
	var err error
	if w.base, err = experiments.BuildAll(w.geom, experiments.Baseline); err != nil {
		return err
	}
	w.opt, err = experiments.BuildAll(w.geom, experiments.Optimizing)
	return err
}

// run renders every table. The operation is the whole rendering, what a
// user of unibench -experiment all waits for; the tables' own times are
// the per-layer experiments.<table>_ms.
func (w *tablesWorkload) run(e *env, rep int) ([]float64, error) {
	t0 := now()
	w.artBefore = experiments.Artifacts.Stats()
	var sb strings.Builder
	for _, c := range tableCalls {
		sp := e.tr.begin("experiments."+c.name, -1, int64(rep))
		t, err := c.f(w)
		if err == nil {
			sb.WriteString(t.String())
			sb.WriteByte('\n')
		}
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	w.artAfter = experiments.Artifacts.Stats()
	w.rendered = append(w.rendered, sb.String())
	return []float64{ms(now() - t0)}, nil
}

// probeConfigs is the E2/E3 geometry set: the paper cache under each
// executable policy, managed both ways, and E2's fully associative LRU
// sizes under unified management.
func probeConfigs(geom experiments.CacheGeometry) []cache.Config {
	var cfgs []cache.Config
	for _, p := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		cfgs = append(cfgs,
			cache.Config{Sets: geom.Sets, Ways: geom.Ways, LineWords: geom.LineWords, Policy: p, Dead: cache.DeadOff, Seed: 1},
			cache.Config{Sets: geom.Sets, Ways: geom.Ways, LineWords: geom.LineWords, Policy: p, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1})
	}
	for _, n := range deadLRUSizes {
		cfgs = append(cfgs, cache.Config{Sets: 1, Ways: n, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1})
	}
	return cfgs
}

// probeBenches bounds the replay probe to the two shortest traces, so a
// traced run stays within the run time limit.
var probeBenches = map[string]bool{"intmm": true, "sieve": true}

// replayProbe calls Replay, ReplayBatch and MeasureBatch on the baseline
// workloads' traces over the E2/E3 geometry set. It runs once per traced
// run, in set-up, so it adds nothing to the timed tables.
func (w *tablesWorkload) replayProbe(e *env) error {
	cfgs := probeConfigs(w.geom)
	for i, wl := range w.base {
		if !probeBenches[wl.Bench.Name] {
			continue
		}
		id := int64(i)
		sp := e.tr.begin("replay.replay", -1, id)
		for _, cfg := range cfgs {
			if _, err := replay.Replay(wl.Trace, cfg, 0); err != nil {
				return err
			}
		}
		e.tr.end(sp)
		sp = e.tr.begin("replay.replay_batch", -1, id)
		_, err := replay.ReplayBatch(wl.Trace, cfgs)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		sp = e.tr.begin("replay.measure_batch", -1, id)
		_, err = replay.MeasureBatch(wl.Trace, cfgs)
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *tablesWorkload) verify(e *env) (attempted, failed int, err error) {
	golden, err := os.ReadFile(tablesGolden)
	if err != nil {
		return 0, 0, err
	}
	var errs []string
	for i, r := range w.rendered {
		attempted += len(tableCalls)
		if r != string(golden) {
			failed += len(tableCalls)
			errs = append(errs, fmt.Sprintf("repetition %d: rendered tables differ from %s", i, tablesGolden))
		}
	}
	for _, p := range w.outputs {
		attempted++
		if p.unified != p.expected || p.conventional != p.expected {
			failed++
			errs = append(errs, fmt.Sprintf("%s (%s): output differs from bench.Expected", p.name, p.compiler))
		}
	}
	if len(errs) > 0 {
		return attempted, failed, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return attempted, failed, nil
}

func (w *tablesWorkload) layers(e *env, spans []span, m map[string]float64) {
	lt := layerTimes(spans)
	for _, c := range tableCalls {
		m["experiments."+c.name+"_ms"] = lt["experiments."+c.name].totalMS / float64(max(len(w.rendered), 1))
	}
	// Per set-up figures: every set-up does the same work.
	ba := lt["experiments.buildall"]
	setups := float64(ba.count)
	m["experiments.buildall_ms"] = ratio(ba.totalMS, setups)

	compile := lt["core.compile"]
	m["core.compile_ms"] = ratio(compile.totalMS, setups)
	m["core.sites"] = ratio(float64(w.sites), setups)
	m["core.us_per_site"] = ratio(1000*compile.totalMS, float64(w.sites))

	// BuildAll's self time, with compilation split out, is the VM runs
	// and trace encoding of every workload.
	var refs, size int64
	for _, wl := range w.base {
		refs += int64(wl.Trace.Len())
		size += int64(wl.Trace.Size())
	}
	vmMS := ratio(ba.selfMS, setups)
	m["vm.run_ms"] = vmMS
	m["vm.instructions"] = float64(w.instructions)
	m["vm.minstr_per_s"] = ratio(float64(w.instructions)/1e6, vmMS/1000)
	m["replay.bytes_per_ref"] = ratio(float64(size), float64(refs))

	var probeRefs int64
	for _, wl := range w.base {
		if probeBenches[wl.Bench.Name] {
			probeRefs += int64(wl.Trace.Len())
		}
	}
	n := float64(len(probeConfigs(w.geom)))
	refsCfg := float64(probeRefs) * n
	m["replay.replay_ns_per_ref"] = ratio(1e6*lt["replay.replay"].totalMS, refsCfg)
	m["replay.batch_ns_per_ref_cfg"] = ratio(1e6*lt["replay.replay_batch"].totalMS, refsCfg)
	m["replay.measure_ns_per_ref_cfg"] = ratio(1e6*lt["replay.measure_batch"].totalMS, refsCfg)

	st := w.artAfter
	b := w.artBefore
	m["artifact.build_hit_ratio"] = ratio(float64(st.BuildHits-b.BuildHits), float64(st.BuildHits-b.BuildHits+st.BuildMisses-b.BuildMisses))
	m["artifact.run_hit_ratio"] = ratio(float64(st.RunHits-b.RunHits), float64(st.RunHits-b.RunHits+st.RunMisses-b.RunMisses))
	m["artifact.batch_replays"] = float64(st.BatchReplays - b.BatchReplays)
}
