package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// errMachines refuses a comparison across machines.
var errMachines = errors.New("results measured on different machines")

// compareMain compares the untraced results saved in two directories;
// see compare. It exits 1 when a metric got worse by more than its bound
// and 2 when the comparison is refused or fails.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <results-dir-a> <results-dir-b>")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var sides [2][]resultFile
	for i, dir := range args {
		if sides[i], err = loadResults(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	worse, err := compare(os.Stdout, spec, sides[0], sides[1])
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	case worse:
		return 1
	}
	return 0
}

// loadResults reads the untraced results saved in dir.
func loadResults(dir string) ([]resultFile, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no untraced results in %s", dir)
	}
	var out []resultFile
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// compare writes, per workload and end-to-end metric, both sides' medians
// and spreads and the change against the metric's bound, and reports
// whether any metric got worse by more than its bound. A metric whose
// baseline spread exceeds its bound is reported unresolved, not worse. It
// refuses results whose machine stamps differ.
func compare(w io.Writer, spec *benchSpec, a, b []resultFile) (worse bool, err error) {
	machine := a[0].Stamp.machine()
	for _, rf := range append(append([]resultFile(nil), a...), b...) {
		if m := rf.Stamp.machine(); m != machine {
			return false, fmt.Errorf("%w:\n  %s\n  %s", errMachines, machine, m)
		}
	}
	fmt.Fprintf(w, "machine: %s\n", machine)
	byWorkload := func(rs []resultFile, name string) []resultFile {
		var out []resultFile
		for _, r := range rs {
			if r.Workload == name {
				out = append(out, r)
			}
		}
		return out
	}
	for _, wl := range spec.Workloads {
		ra, rb := byWorkload(a, wl.Name), byWorkload(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d vs %d runs (%s vs %s)\n", wl.Name, len(ra), len(rb), ra[0].Stamp.Commit, rb[0].Stamp.Commit)
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound:
				verdict = "unresolved (spread above bound)"
			case change > m.Bound:
				verdict = "WORSE"
				worse = true
			}
			fmt.Fprintf(w, "  %-10s %12.6g -> %12.6g %-3s spread %5.1f%% / %5.1f%%  worse by %+6.1f%% (bound %.0f%%)  %s\n",
				m.Name, ma, mb, m.Unit, 100*spread(va), 100*spread(vb), 100*change, 100*m.Bound, verdict)
		}
	}
	return worse, nil
}

func values(rs []resultFile, name string) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.Metrics[name].Value)
	}
	return v
}
