package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// epoch anchors the benchmark's single clock seam: every duration the
// benchmark reports is a difference of now() readings.
var epoch = time.Now() //unilint:ok wallclock the benchmark's one clock seam; timings are its measurands and reach no golden output

// now is the monotonic time since the process started.
func now() time.Duration {
	return time.Since(epoch) //unilint:ok wallclock the benchmark's one clock seam; timings are its measurands and reach no golden output
}

// env is what one run of a workload is given: the seed its inputs derive
// from, how long to measure, and the tracer (nil when untraced).
type env struct {
	seed    int64
	seconds float64
	tr      *tracer
}

// workload is one benchmark scenario.
//
// The harness calls setup before every repetition, so each repetition
// starts from cold state (fresh caches, fresh inputs), and times it as
// set-up work. run is the timed region of one repetition and returns one
// latency per operation in ms. verify checks the outputs of every
// repetition outside any timed region. layers fills the per-layer metrics
// from the workload's counters and the spans of a traced run.
type workload interface {
	setup(e *env, rep int) error
	run(e *env, rep int) ([]float64, error)
	verify(e *env) (attempted, failed int, err error)
	layers(e *env, spans []span, m map[string]float64)
}

// Set-up time is a median over several set-ups per run: at least
// minSetups, and more while they add up to less than minSetupTime, so a
// set-up of a few milliseconds is sampled often enough to gate on.
const (
	minSetups    = 2
	maxSetups    = 100
	minSetupTime = 2 * time.Second
)

// region is the cost of one timed region.
type region struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes allocated (TotalAlloc delta)
	gcs       uint32
	gcPause   time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs f as a timed region after a full collection, so the region
// neither inherits garbage from earlier work nor is charged for it.
func measure(f func() error) (region, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), now()
	err := f()
	wall := now() - t0
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return region{
		wall:    wall,
		cpu:     c1 - c0,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, err
}

// outcome is what one run of a workload measured.
type outcome struct {
	setups    []float64 // seconds per set-up
	regions   []region  // one per timed repetition
	ops       []float64 // per-operation latency, ms, over all repetitions
	attempted int
	failed    int
	checkErr  error
	layer     map[string]float64
}

// execute runs w: the set-ups (the last one feeds the first repetition),
// then repetitions, each after a fresh set-up, while one more repetition
// of the average length still fits in the requested seconds; there is
// always at least one. The outputs are verified once every repetition has
// finished.
func execute(w workload, e *env) (*outcome, error) {
	o := &outcome{}
	doSetup := func(rep int) error {
		runtime.GC()
		t0 := now()
		if err := w.setup(e, rep); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		o.setups = append(o.setups, (now() - t0).Seconds())
		return nil
	}
	var setupTotal float64
	for i := 0; i < minSetups || (setupTotal < minSetupTime.Seconds() && i < maxSetups); i++ {
		if err := doSetup(0); err != nil {
			return nil, err
		}
		setupTotal += o.setups[i]
	}
	var measured time.Duration
	for rep := 0; ; rep++ {
		if rep > 0 {
			if err := doSetup(rep); err != nil {
				return nil, err
			}
		}
		var ops []float64
		reg, err := measure(func() (err error) {
			ops, err = w.run(e, rep)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		o.regions = append(o.regions, reg)
		o.ops = append(o.ops, ops...)
		measured += reg.wall
		if (measured + measured/time.Duration(rep+1)).Seconds() > e.seconds {
			break
		}
	}
	o.attempted, o.failed, o.checkErr = w.verify(e)
	o.layer = make(map[string]float64)
	var gcs uint32
	var pause time.Duration
	for _, r := range o.regions {
		gcs += r.gcs
		pause += r.gcPause
	}
	o.layer["runtime.gc_cycles"] = float64(gcs)
	o.layer["runtime.gc_pause_ms"] = ms(pause)
	w.layers(e, e.tr.snapshot(), o.layer)
	return o, nil
}

// endToEnd derives the end-to-end metrics from an untraced outcome.
func (o *outcome) endToEnd() map[string]float64 {
	var wall, cpu, alloc []float64
	for _, r := range o.regions {
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		alloc = append(alloc, float64(r.alloc)/1e6)
	}
	return map[string]float64{
		"wall_s":   median(wall),
		"cpu_s":    median(cpu),
		"alloc_mb": median(alloc),
		"setup_s":  median(o.setups),
		"p50_ms":   quantile(o.ops, 0.5),
		"p90_ms":   quantile(o.ops, 0.9),
	}
}

// ratio is a/b, or 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
