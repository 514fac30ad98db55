package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/progen"
)

// Corpus shape. Generated programs vary tenfold in size, and per-program
// cost with them; keeping only programs whose printed source falls in one
// size band makes a corpus's cost depend on its size, not on its seed.
const (
	corpusMinBytes = 3000
	corpusMaxBytes = 6000
	// stepsPerSite sizes each program's exact-refinement budget from its
	// reference-site count, deterministically: most programs exhaust it,
	// some finish.
	stepsPerSite = 1000
)

// programsPerSecond sizes a corpus to the run length; it is about how
// many corpus programs one core analyzes per second.
const programsPerSecond = 11.25

// analyzeConfig is the hardware point of the analyses: the paper's cache,
// conventional management (every reference goes through the cache, the
// hardest refinement load), as in the E12 scaling campaign.
var analyzeConfig = cache.Config{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadOff, Seed: 1}

var analyzeCore = core.Config{Mode: core.Conventional, StackScalars: true, Check: true}

// analyzeWorkload compiles seeded progen programs, runs the must/may
// prefilter and then the exact refinement under a step budget. One
// operation is one program's verdict.
type analyzeWorkload struct {
	corpus  []string // the current repetition's programs
	checked []program
}

// program is one analyzed program with the figures its verdict produced.
type program struct {
	src                 string
	budget              int64
	sites, unknown      int
	steps               int64
	peak                int
	exhausted           bool
	irreducible         int
	err                 error
	preHit, preMiss     int
	exactHit, exactMiss int
}

// genCorpus draws programs from the seed until the corpus holds n programs
// inside the size band.
func genCorpus(seed int64, rep, n int) []string {
	rng := rand.New(rand.NewSource(seed*104729 + int64(rep)))
	var out []string
	for len(out) < n {
		src := progen.Source(rng.Int63(), progen.DefaultKnobs())
		if len(src) >= corpusMinBytes && len(src) < corpusMaxBytes {
			out = append(out, src)
		}
	}
	return out
}

func (w *analyzeWorkload) setup(e *env, rep int) error {
	w.corpus = genCorpus(e.seed, rep, max(1, int(programsPerSecond*e.seconds)))
	return nil
}

func (w *analyzeWorkload) run(e *env, rep int) ([]float64, error) {
	var ops []float64
	for _, src := range w.corpus {
		id := int64(len(w.checked))
		t0 := now()
		root := e.tr.begin("analyze.program", -1, id)
		p := analyzeOne(e.tr, root, id, src)
		e.tr.end(root)
		ops = append(ops, ms(now()-t0))
		w.checked = append(w.checked, p)
	}
	return ops, nil
}

// analyzeOne is the verdict pipeline for one program.
func analyzeOne(tr *tracer, parent int, id int64, src string) program {
	p := program{src: src}
	sp := tr.begin("core.compile", parent, id)
	comp, err := core.Compile(src, analyzeCore)
	tr.end(sp)
	if err != nil {
		p.err = err
		return p
	}
	p.sites = comp.Stats.Sites
	p.budget = stepsPerSite * int64(p.sites)
	opt := check.Options{Interproc: true, SavedRegs: core.SavedRegCounts(comp)}

	sp = tr.begin("check.prefilter", parent, id)
	pre, err := check.AnalyzeCache(comp.Prog, analyzeConfig, opt)
	tr.end(sp)
	if err != nil {
		p.err = err
		return p
	}
	p.unknown = pre.Unk

	sp = tr.begin("exact.analyze", parent, id)
	rep, err := exact.AnalyzeWith(comp.Prog, analyzeConfig, opt, exact.Options{StepBudget: p.budget})
	tr.end(sp)
	if err != nil {
		p.err = err
		return p
	}
	p.steps, p.peak, p.exhausted = rep.Steps, rep.PeakWidth, rep.Exhausted
	p.irreducible = rep.Irreducible
	p.preHit, p.preMiss, p.exactHit, p.exactMiss = rep.PreHit, rep.PreMiss, rep.ExactHit, rep.ExactMiss
	return p
}

// verify replays every program on the VM against its static verdicts
// (exact.OracleWith, same budget) and requires zero violations and the
// same verdict counts as the timed analysis.
func (w *analyzeWorkload) verify(e *env) (attempted, failed int, err error) {
	var first error
	for i, p := range w.checked {
		attempted++
		err := p.err
		if err == nil {
			var res *exact.OracleResult
			res, err = exact.OracleWith(p.src, analyzeCore, analyzeConfig, 0, exact.Options{StepBudget: p.budget}, true)
			switch {
			case err != nil:
			case res.Err() != nil:
				err = res.Err()
			case res.Report.Steps != p.steps || res.Report.ExactHit != p.exactHit ||
				res.Report.ExactMiss != p.exactMiss || res.Report.PreHit != p.preHit || res.Report.PreMiss != p.preMiss:
				err = fmt.Errorf("oracle analysis disagrees with the timed one")
			}
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("program %d: %w", i, err)
			}
		}
	}
	return attempted, failed, first
}

func (w *analyzeWorkload) layers(e *env, spans []span, m map[string]float64) {
	lt := layerTimes(spans)
	var sites, unknown, resolved, irreducible, exhausted, peak int
	var steps int64
	for _, p := range w.checked {
		sites += p.sites
		unknown += p.unknown
		resolved += p.exactHit + p.exactMiss
		irreducible += p.irreducible
		steps += p.steps
		peak = max(peak, p.peak)
		if p.exhausted {
			exhausted++
		}
	}
	n := float64(len(w.checked))
	compile := lt["core.compile"]
	m["core.compile_ms"] = compile.totalMS
	m["core.sites"] = float64(sites)
	m["core.us_per_site"] = ratio(1000*compile.totalMS, float64(sites))
	m["check.prefilter_ms"] = lt["check.prefilter"].totalMS
	m["check.unknown_sites"] = float64(unknown)
	ex := lt["exact.analyze"]
	m["exact.analyze_ms"] = ex.totalMS
	m["exact.steps"] = float64(steps)
	m["exact.msteps_per_s"] = ratio(float64(steps)/1e6, ex.totalMS/1000)
	m["exact.exhausted_programs"] = float64(exhausted)
	m["exact.decided_share"] = ratio(n-float64(exhausted), n)
	m["exact.resolved_sites"] = float64(resolved)
	m["exact.irreducible_sites"] = float64(irreducible)
	m["exact.peak_width"] = float64(peak)
}
