// Command perfbench is the repository's benchmark. It drives the compiler,
// simulator, analyses and daemon from outside through each layer's public
// functions, on one of four workloads (see README.md):
//
//	perfbench --workload tables|sweep|analyze|serve --seed N --seconds S --trace 0|1
//	perfbench compare <results-dir-a> <results-dir-b>
//
// It is run from the repository root, where it reads BENCHMARK.json for the
// metric names, units and bounds. An untraced run (--trace 0) prints every
// end-to-end metric; a traced run (--trace 1) runs the workload untraced and
// then traced, and prints every per-layer metric, including the tracing
// overhead. Outputs are checked outside the timed regions; a wrong output
// makes the run exit 1. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Each result is also
// written, with the machine stamp, under $PERFBENCH_OUT/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run leaves under $PERFBENCH_OUT/results.
type resultFile struct {
	Stamp    stamp  `json:"stamp"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Reps     int    `json:"reps"`
	Ops      int    `json:"ops"`
	resultLine
}

func newWorkload(name string) workload {
	switch name {
	case "tables":
		return &tablesWorkload{}
	case "sweep":
		return &sweepWorkload{}
	case "analyze":
		return &analyzeWorkload{}
	case "serve":
		return &serveWorkload{}
	}
	return nil
}

func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: tables, sweep, analyze or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 12, "how long to measure")
	trace := fs.Int("trace", 0, "1: run untraced and traced, print the per-layer metrics")
	fs.Parse(os.Args[1:])
	if err := runMain(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(name string, seed int64, seconds, trace int) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if newWorkload(name) == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	st, err := machineStamp()
	if err != nil {
		return err
	}

	e := &env{seed: seed, seconds: float64(seconds)}
	o, err := execute(newWorkload(name), e)
	if err != nil {
		return err
	}
	res := resultLine{Metrics: make(map[string]metricValue)}
	var want []metricSpec
	var got map[string]float64
	final := o
	if trace == 0 {
		want, got = spec.EndToEnd, o.endToEnd()
	} else {
		te := &env{seed: seed, seconds: float64(seconds), tr: &tracer{}}
		to, err := execute(newWorkload(name), te)
		if err != nil {
			return err
		}
		final = to
		want, got = spec.PerLayer, to.layer
		got["trace.overhead_pct"] = 100 * (ratio(to.endToEnd()["wall_s"], o.endToEnd()["wall_s"]) - 1)
		if err := os.MkdirAll(filepath.Join(outDir(), "spans"), 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir(), "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, te.tr.snapshot()); err != nil {
			return err
		}
		if o.checkErr != nil && to.checkErr == nil {
			to.checkErr = o.checkErr
		}
		to.attempted += o.attempted
		to.failed += o.failed
	}
	if err := fillMetrics(res.Metrics, want, got); err != nil {
		return err
	}
	res.Attempted, res.Failed = final.attempted, final.failed
	res.Correct = final.checkErr == nil && final.failed == 0 && final.attempted > 0

	fmt.Printf("stamp: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		st.CPU, st.NProc, st.GOMAXPROCS, st.Go, st.Commit)
	fmt.Printf("workload %s seed %d: %d repetitions, %d operations, %d attempted, %d failed\n",
		name, seed, len(final.regions), len(final.ops), res.Attempted, res.Failed)
	for _, m := range want {
		fmt.Printf("  %-34s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if final.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", final.checkErr)
	}

	rf := resultFile{Stamp: st, Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Reps: len(final.regions), Ops: len(final.ops), resultLine: res}
	if err := saveResult(rf); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// fillMetrics copies every metric the spec names into out, and refuses a
// workload that reports a metric the spec does not name (a misspelt name
// would otherwise print as an idle layer).
func fillMetrics(out map[string]metricValue, want []metricSpec, got map[string]float64) error {
	known := make(map[string]bool, len(want))
	for _, m := range want {
		known[m.Name] = true
		out[m.Name] = metricValue{Value: got[m.Name], Unit: m.Unit}
	}
	var unknown []string
	for k := range got {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("metrics missing from BENCHMARK.json: %v", unknown)
	}
	return nil
}

func saveResult(rf resultFile) error {
	dir := filepath.Join(outDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rf.Workload, rf.Seed, rf.Trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
