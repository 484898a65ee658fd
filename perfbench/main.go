// Command perfbench is the repository's benchmark: one workload per run,
// measured from outside the program by timing and counting calls into the
// public functions of scene, kdtree, render, harness/autotune and serve.
//
//	perfbench --workload rebuild|tune|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// and the run's spans are written to .bench_build/traces/. A human-readable
// summary goes to standard error. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line inputs shared by every workload.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main: its raw samples and
// counts, from which main derives the end-to-end metrics, plus the
// per-layer metrics it measured itself when tracing.
type outcome struct {
	setups    []time.Duration // one per in-process set-up
	ops       []time.Duration // latency of every op that completed correctly
	attempted int
	failed    int
	// slices holds the correct ops' latencies in consecutive slices of the
	// run (tune: one per session), rates each slice's ops per second of
	// wall time; op_ms_p90 and ops_per_s are medians over them.
	slices [][]time.Duration
	rates  []float64

	layers map[string]metric // per-layer metrics (traced runs only)
	spans  []span            // recorded spans (traced runs only)
}

// workloads maps a --workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"rebuild": runRebuild,
	"tune":    runTune,
	"serve":   runServe,
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res := summarize(o, out)
	if o.trace {
		if err := writeTrace(o, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
		}
	}
	printSummary(os.Stderr, o, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "rebuild | tune | serve")
	seed := fs.Int64("seed", 1, "seed for every random input of the run")
	seconds := fs.Float64("seconds", 30, "measurement window, seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want rebuild, tune or serve)", *workload)
	}
	if !(*seconds > 0) {
		return options{}, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}, nil
}

// summarize turns a workload outcome into the reported result: the six
// end-to-end metrics untraced, the per-layer metrics traced.
func summarize(o options, out *outcome) result {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		res.Metrics = completeLayers(out.layers)
		return res
	}
	ms := durationsMS(out.ops)
	res.Metrics["setup_s"] = metric{median(secondsOf(out.setups)), "s"}
	res.Metrics["op_ms_p50"] = metric{percentile(ms, 0.50), "ms"}
	res.Metrics["op_ms_p90"] = metric{slicePercentile(out.slices, 0.90), "ms"}
	res.Metrics["ops_per_s"] = metric{median(out.rates), "1/s"}
	res.Metrics["mem_peak_mb"] = metric{peakRSSMiB(), "MiB"}
	res.Metrics["ok_ratio"] = metric{okRatio(out.attempted, out.failed), "ratio"}
	return res
}

// printSummary writes the human-readable report, including fail_ratio and
// the sample counts behind each percentile.
func printSummary(w io.Writer, o options, out *outcome, res result) {
	fmt.Fprintf(w, "perfbench %s seed=%d window=%s trace=%v\n", o.workload, o.seed, o.window, o.trace)
	fmt.Fprintf(w, "  ops: %d completed, %d attempted, %d failed, fail_ratio %.6f\n",
		len(out.ops), out.attempted, out.failed, failRatio(out.attempted, out.failed))
	if !o.trace {
		fewest := len(out.ops)
		for _, s := range out.slices {
			fewest = min(fewest, len(s))
		}
		fmt.Fprintf(w, "  op_ms_p90 is the median of %d slice p90s, each on >= %d ops; over all %d ops p90 is %.6g ms\n",
			len(out.slices), fewest, len(out.ops), percentile(durationsMS(out.ops), 0.90))
		if !tailOK(fewest, 0.90) {
			fmt.Fprintf(w, "  note: a slice p90 rests on fewer than the %d ops that leave %d beyond it\n",
				minSamples(0.90), minTail)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}

// writeTrace stores the run's spans as JSON under .bench_build/traces/ in
// the working directory (the checkout root).
func writeTrace(o options, spans []span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the Go runtime's reserved memory where
// procfs is unavailable.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gcWindow snapshots the collector's counters at the start of a window;
// addTo reports GC cycles and stop-the-world pause per op over it.
type gcWindow struct{ numGC, pauseNS uint64 }

func startGCWindow() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{uint64(ms.NumGC), ms.PauseTotalNs}
}

func (g gcWindow) addTo(layers map[string]metric, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(max(ops, 1))
	layers["runtime.gc_cycles_per_op"] = metric{float64(uint64(ms.NumGC)-g.numGC) / n, "count"}
	layers["runtime.gc_pause_ms"] = metric{float64(ms.PauseTotalNs-g.pauseNS) / 1e6 / n, "ms"}
}

// allocsOf runs fn once and returns the heap allocations and bytes it made,
// counted process-wide by runtime.MemStats.
func allocsOf(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// Set-up is timed over several fresh in-process rounds and setup_s is their
// median: at least minSetupRounds, and more while they have taken less than
// minSetupTime in total (so a set-up of a few milliseconds is timed over
// many rounds), up to maxSetupRounds.
const (
	minSetupRounds = 5
	maxSetupRounds = 101
	minSetupTime   = 500 * time.Millisecond
)

// timeSetups runs setup for the rounds above, each after a collection so
// every round starts from the same heap state, and returns the durations
// and the last round's product (the one the workload then measures).
// discard, when non-nil, releases every other round's product.
func timeSetups[T any](setup func() (T, error), discard func(T)) ([]time.Duration, T, error) {
	var (
		ds    []time.Duration
		total time.Duration
		last  T
	)
	for len(ds) < minSetupRounds || (total < minSetupTime && len(ds) < maxSetupRounds) {
		if len(ds) > 0 && discard != nil {
			discard(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0)
		if err != nil {
			return nil, last, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, d)
		total += d
		last = v
	}
	return ds, last, nil
}
