package main

import (
	"errors"
	"io"
	"testing"
)

func results(st stamp, workload string, walls ...float64) []resultFile {
	var out []resultFile
	for _, v := range walls {
		rf := resultFile{Stamp: st, Workload: workload}
		rf.Metrics = map[string]metricValue{"wall_s": {Value: v, Unit: "s"}}
		out = append(out, rf)
	}
	return out
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"sweep"})
	here := stamp{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "src-a"}
	base := results(here, "sweep", 10, 10.5, 11, 10.2, 9.9)

	there := here
	there.Commit = "src-b"
	if worse, err := compare(io.Discard, spec, base, results(there, "sweep", 10.1, 10.4, 10.8)); err != nil || worse {
		t.Errorf("same machine, same speed: worse=%v err=%v", worse, err)
	}
	if worse, err := compare(io.Discard, spec, base, results(there, "sweep", 14, 14.5, 15)); err != nil || !worse {
		t.Errorf("40%% slower: worse=%v err=%v, want worse", worse, err)
	}

	other := here
	other.CPU = "cpu B"
	if _, err := compare(io.Discard, spec, base, results(other, "sweep", 10)); !errors.Is(err, errMachines) {
		t.Errorf("different CPUs: err=%v, want errMachines", err)
	}
	other = here
	other.GOMAXPROCS = 1
	if _, err := compare(io.Discard, spec, base, results(other, "sweep", 10)); !errors.Is(err, errMachines) {
		t.Errorf("different GOMAXPROCS: err=%v, want errMachines", err)
	}
}
