package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies where and on what a result was measured. Results are
// comparable only when every machine field matches; Commit tells the two
// sides of a comparison apart.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is a digest of the Go sources and module files under test
	// (the benchmark's own directory excluded). It stands in for a commit
	// hash because a benchmark checkout need not be a git repository.
	Commit string `json:"commit"`
}

func (s stamp) machine() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", s.CPU, s.NProc, s.GOMAXPROCS, s.Go)
}

func machineStamp() (stamp, error) {
	commit, err := sourceDigest(".")
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH + " (model unknown)"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH + " (model unknown)"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root in path
// order, skipping hidden directories and the benchmark's own directory.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || p == filepath.Join(root, "perfbench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); d.Type().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
