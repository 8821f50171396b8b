// Command perfbench is the repository's benchmark. It serves an
// in-process iddserver, drives one workload against it from a single
// process, checks every answer, and prints the metrics BENCHMARK.json
// declares as the last line of standard output:
//
//	bash perfbench/run.sh --workload proof --seed 1 --seconds 30 --trace 0
//
// Workloads (why each was chosen is in METRICS.md):
//
//	proof      closed loop over a fixed ladder of TPC-H reductions
//	           through POST /solve, each at a budget on one side of its
//	           proof cliff, and a relabelled repeat for the cache
//	evolve     closed-loop re-solve sessions on TPC-H and TPC-DS with a
//	           seeded delta sequence
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it drives the same inputs again and then replays them stage by stage
// through the layers' public functions, recording spans around each
// call; it reports the per-layer metrics and writes the spans under
// .bench_build/. Runs read and write only inside the working directory.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

func main() {
	workload := flag.String("workload", "", "proof | evolve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds: evolve sizes its delta sequence to it; proof runs a fixed ladder of about that length")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64, seconds int) (workload, error) {
	switch name {
	case "proof":
		return &proofWorkload{passes: proofInputs(seed)}, nil
	case "evolve":
		return &evolveWorkload{sessions: evolveInputs(seed, seconds)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want proof or evolve)", name)
}

func run(name string, seed int64, seconds int, trace bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	commit, err := sourceDigest(".")
	if err != nil {
		return fmt.Errorf("stamp: %w", err)
	}

	// Set up several times: each set-up starts a fresh server from a
	// collected heap and generates the inputs; the last inputs are
	// kept. The measured phase starts servers of its own.
	var (
		w      workload
		setups []float64
	)
	for len(setups) < setupRepeats {
		w = nil // every set-up starts from the same heap
		runtime.GC()
		start := time.Now()
		s, err := startServer()
		if err != nil {
			return err
		}
		w, err = newWorkload(name, seed, seconds)
		setups = append(setups, time.Since(start).Seconds())
		s.stop()
		if err != nil {
			return err
		}
	}

	o := newOutcome()
	sampler := startSampler()
	err = w.drive()
	sampler.finish()
	if err != nil {
		return fmt.Errorf("drive: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if err := w.verify(o, newReferences()); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	o.e2e["setup_s"] = median(sortedCopy(setups))
	o.e2e["heap_mb"] = sampler.meanLiveMB()
	o.e2e["ok_frac"] = frac(o.attempted-o.failed, o.attempted)
	o.layer["proc.heap_peak_mb"] = mb(sampler.objects)
	o.layer["proc.gc_cycles"] = float64(sampler.gcs)

	stamp := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"commit": commit, "cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(),
	}
	var metrics map[string]map[string]any
	if trace {
		rec := newRecorder()
		rp := newReplayer(rec)
		if err := w.replay(rp); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rp.layerMetrics(o.layer)
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", name, seed))
		if err := rec.write(path, stamp); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		o.line("spans: %s (%d)", path, len(rec.snapshot()))
		metrics = pick(perLayer, o.layer)
	} else {
		metrics = pick(endToEnd, o.e2e)
	}

	out := bufio.NewWriter(os.Stdout)
	stampJSON, _ := json.Marshal(stamp)
	fmt.Fprintf(out, "stamp %s\n", stampJSON)
	for _, l := range o.report {
		fmt.Fprintln(out, strings.TrimRight(l, "\n"))
	}
	fmt.Fprintf(out, "setup_s %.4f s (median of %d set-ups), heap_mb %.1f MB (mean live), peak_rss_mb %.1f MB, fail_frac %.4f (%d of %d)\n",
		o.e2e["setup_s"], len(setups), o.e2e["heap_mb"], rss, frac(o.failed, o.attempted), o.failed, o.attempted)
	for _, m := range o.wrong {
		fmt.Fprintln(out, "FAILED:", m)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %s %v %s\n", n, metrics[n]["value"], metrics[n]["unit"])
	}
	result, _ := json.Marshal(map[string]any{
		"correct":   o.violations == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(out, "%s\n", result)
	if err := out.Flush(); err != nil {
		return err
	}
	if o.violations > 0 {
		return fmt.Errorf("%d output-check violations", o.violations)
	}
	return nil
}

func pick(specs []metricSpec, values map[string]float64) map[string]map[string]any {
	out := make(map[string]map[string]any, len(specs))
	for _, m := range specs {
		out[m.Name] = map[string]any{"value": values[m.Name], "unit": m.Unit}
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// sourceDigest identifies the code under test in place of a commit,
// which a checkout that is not a git repository does not have: a
// SHA-256 over the Go sources and go.mod files under root, in path
// order. It is used whether or not root is a git repository.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
