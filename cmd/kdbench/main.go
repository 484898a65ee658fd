// Command kdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	kdbench -experiment fig6                  # speedup matrix, all scenes
//	kdbench -experiment fig5 -iters 150       # paper-scale budgets
//	kdbench -experiment all -repeats 5        # everything, reduced repeats
//
// Experiments: tableI, tableII, fig5, fig6, fig7, fig7c, fig8, fig9, all.
// The defaults are scaled down from the paper's protocol so a full run
// completes in minutes; raise -repeats/-iters/-width for paper fidelity
// (see EXPERIMENTS.md for the settings used there).
//
// Benchmark records (DESIGN.md §8):
//
//	kdbench -bench-json BENCH_x.json -bench-tag x   # machine-readable report
//	kdbench -compare old.json new.json              # regression gate
//
// -compare exits non-zero when any scene x algorithm cell's tuned frame
// time regressed by more than -threshold percent, or when a cell present in
// the old report is missing from the new one.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "tableI|tableII|fig5|fig6|fig7|fig7c|fig8|fig9|all")
		repeats    = flag.Int("repeats", 5, "tuning repetitions per configuration (paper: 15)")
		iters      = flag.Int("iters", 80, "max tuning iterations per run (paper: until convergence, ~150)")
		width      = flag.Int("width", 160, "render width in pixels (height = 3/4 width)")
		workers    = flag.Int("workers", 0, "parallelism budget; 0 = all cores")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		measure    = flag.String("measure-file", "", "CSV of scene,algo,ci,cb,s,r rows for -experiment measure")
		csvDir     = flag.String("csv", "", "also write results as CSV files into this directory")

		benchJSON   = flag.String("bench-json", "", "write a machine-readable benchmark report to this path and exit")
		benchTag    = flag.String("bench-tag", "", "free-form label stored in the -bench-json report")
		benchScenes = flag.String("bench-scenes", "", "comma-separated scene names for -bench-json (default: all)")
		benchFrames = flag.Int("bench-frames", 9, "measured frames per cell for -bench-json (after warmup)")
		benchDF     = flag.Int("deadline-factor", 0, "build watchdog multiple for -bench-json: abort builds slower than this many times the incumbent frame (0 = default 10)")
		compare     = flag.Bool("compare", false, "compare two bench reports: kdbench -compare old.json new.json")
		threshold   = flag.Float64("threshold", 10, "regression threshold in percent for -compare")
	)
	flag.Parse()

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "kdbench: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		err := runBenchJSON(benchConfig{
			path: *benchJSON, tag: *benchTag, sceneList: *benchScenes,
			frames: *benchFrames, iters: *iters, width: *width,
			workers: *workers, seed: *seed, deadlineFactor: *benchDF,
			progress: progress,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opts := harness.Opts{
		Workers: *workers, Width: *width,
		Repeats: *repeats, MaxIterations: *iters,
		Seed: *seed, Progress: progress,
	}

	writeCSV := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(*csvDir + "/" + name + ".csv")
		if err != nil {
			return err
		}
		defer f.Close()
		return write(f)
	}

	run := func(name string) error {
		switch name {
		case "tableI":
			harness.PrintTableI(os.Stdout)
		case "tableII":
			harness.PrintTableII(os.Stdout)
		case "fig5":
			cells, err := harness.SpeedupExperiment(
				[]string{"Sibenik", "Sponza", "FairyForest"}, kdtree.Algorithms, opts)
			if err != nil {
				return err
			}
			harness.PrintFigure5(os.Stdout, cells)
			if err := writeCSV("fig5", func(w io.Writer) error { return harness.WriteSpeedupCSV(w, cells) }); err != nil {
				return err
			}
		case "fig6":
			cells, err := harness.SpeedupExperiment(
				[]string{"Bunny", "FairyForest", "Sibenik", "Sponza", "Toasters", "WoodDoll"},
				kdtree.Algorithms, opts)
			if err != nil {
				return err
			}
			harness.PrintFigure6(os.Stdout, cells)
			if err := writeCSV("fig6", func(w io.Writer) error { return harness.WriteSpeedupCSV(w, cells) }); err != nil {
				return err
			}
		case "fig7":
			static, err := harness.TunedDistribution([]string{"Sponza", "Sibenik"}, kdtree.AlgoInPlace, opts)
			if err != nil {
				return err
			}
			harness.PrintFigure7(os.Stdout, "Figure 7a: tuned configurations, in-place algorithm, static scenes", static)
			dynamic, err := harness.TunedDistribution([]string{"Toasters", "WoodDoll"}, kdtree.AlgoInPlace, opts)
			if err != nil {
				return err
			}
			harness.PrintFigure7(os.Stdout, "Figure 7b: tuned configurations, in-place algorithm, dynamic scenes", dynamic)
			if err := writeCSV("fig7", func(w io.Writer) error {
				return harness.WriteDistributionCSV(w, append(append([]harness.ParamDistribution{}, static...), dynamic...))
			}); err != nil {
				return err
			}
		case "fig7c":
			dists, err := harness.TunedDistributionPlatforms("Sibenik", kdtree.AlgoInPlace, opts)
			if err != nil {
				return err
			}
			harness.PrintFigure7(os.Stdout, "Figure 7c: tuned configurations, Sibenik, four platforms (simulated by thread budget)", dists)
			if err := writeCSV("fig7c", func(w io.Writer) error { return harness.WriteDistributionCSV(w, dists) }); err != nil {
				return err
			}
		case "fig8":
			for _, sc := range []string{"Sponza", "WoodDoll"} {
				pts, err := harness.ConvergenceTrace(sc, kdtree.AlgoInPlace, opts)
				if err != nil {
					return err
				}
				harness.PrintFigure8(os.Stdout, sc, pts)
				if err := writeCSV("fig8_"+sc, func(w io.Writer) error { return harness.WriteConvergenceCSV(w, pts) }); err != nil {
					return err
				}
			}
		case "fig9":
			// Strided grid: 9 CI x 7 CB x 4 S (x 5 R for lazy) points; the
			// stride per parameter is documented in DESIGN.md §4.
			strides := []int{12, 10, 2, 2}
			cmps, err := harness.CompareSearches("Sibenik", kdtree.Algorithms, strides, opts)
			if err != nil {
				return err
			}
			harness.PrintFigure9(os.Stdout, "Sibenik", cmps)
		case "measure":
			// Re-measure explicit configurations under the fixed protocol
			// (each CSV row: scene,algo,ci,cb,s,r). Useful for verifying
			// previously tuned configurations without re-running the search.
			cells, err := measureFile(*measure, opts)
			if err != nil {
				return err
			}
			harness.PrintFigure5(os.Stdout, cells)
			harness.PrintFigure6(os.Stdout, cells)
		case "select":
			// Beyond the paper: tune every algorithm and pick the winner
			// (the conclusion's proposed handling of the nominal algorithm
			// parameter).
			for _, scName := range []string{"Sibenik", "FairyForest"} {
				sc, err := scene.ByName(scName)
				if err != nil {
					return err
				}
				sel := harness.SelectAlgorithm(sc, opts)
				harness.PrintSelection(os.Stdout, sel)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"tableI", "tableII", "fig5", "fig6", "fig7", "fig7c", "fig8", "fig9"}
	}
	for _, n := range names {
		fmt.Println(strings.Repeat("=", 72))
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "kdbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// benchConfig carries the -bench-json settings into runBenchJSON.
type benchConfig struct {
	path, tag, sceneList string
	frames, iters, width int
	workers              int
	deadlineFactor       int
	seed                 int64
	progress             io.Writer
}

// runBenchJSON produces a machine-readable benchmark report (DESIGN.md §8).
func runBenchJSON(bc benchConfig) error {
	var scenes []*scene.Scene
	if bc.sceneList != "" {
		for _, name := range strings.Split(bc.sceneList, ",") {
			sc, err := scene.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			scenes = append(scenes, sc)
		}
	}
	rep := harness.RunBench(harness.BenchOptions{
		Scenes: scenes,
		Tag:    bc.tag,
		Settings: harness.BenchSettings{
			Width: bc.width, Workers: bc.workers,
			MaxIterations: bc.iters, MeasureFrames: bc.frames, Seed: bc.seed,
			DeadlineFactor: bc.deadlineFactor,
		},
		Progress: bc.progress,
	})
	if err := harness.WriteBenchReportFile(bc.path, rep); err != nil {
		return err
	}
	if bc.progress != nil {
		fmt.Fprintf(bc.progress, "wrote %d results to %s\n", len(rep.Results), bc.path)
	}
	return nil
}

// runCompare diffs two bench reports and returns an error (non-zero exit)
// on regressions or missing cells.
func runCompare(oldPath, newPath string, thresholdPct float64) error {
	oldRep, err := harness.ReadBenchReportFile(oldPath)
	if err != nil {
		return err
	}
	newRep, err := harness.ReadBenchReportFile(newPath)
	if err != nil {
		return err
	}
	res := harness.CompareBenchReports(oldRep, newRep, thresholdPct)
	res.Format(os.Stdout)
	if !res.OK() {
		return fmt.Errorf("%d regressions, %d missing cells", len(res.Regressions), len(res.Missing))
	}
	return nil
}

// measureFile measures base vs explicit configurations listed in a CSV
// (scene,algo,ci,cb,s,r per row) and returns cells for the Figure 5/6
// printers.
func measureFile(path string, opts harness.Opts) ([]harness.SpeedupCell, error) {
	if path == "" {
		return nil, fmt.Errorf("-experiment measure needs -measure-file")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	frames := opts.BaseFrames
	if frames <= 0 {
		frames = 9
	}
	var cells []harness.SpeedupCell
	for ri, row := range rows {
		if len(row) != 6 {
			return nil, fmt.Errorf("row %d: want scene,algo,ci,cb,s,r", ri+1)
		}
		sc, err := scene.ByName(strings.TrimSpace(row[0]))
		if err != nil {
			return nil, err
		}
		var algo kdtree.Algorithm
		found := false
		for _, a := range kdtree.Algorithms {
			if a.String() == strings.TrimSpace(row[1]) {
				algo, found = a, true
			}
		}
		if !found {
			return nil, fmt.Errorf("row %d: unknown algorithm %q", ri+1, row[1])
		}
		params := map[string]int{}
		for i, name := range []string{"CI", "CB", "S", "R"} {
			n, err := strconv.Atoi(strings.TrimSpace(row[2+i]))
			if err != nil {
				return nil, fmt.Errorf("row %d: %v", ri+1, err)
			}
			// R is a tunable of the lazy builder only; the other builders
			// ignore the column.
			if name != "R" || algo.HasR() {
				params[name] = n
			}
		}
		rc := harness.RunConfig{
			Scene: sc, Algorithm: algo, Workers: opts.Workers,
			Width: opts.Width, Height: opts.Width * 3 / 4,
		}
		base := harness.MeasureFixed(rc, frames)
		tunedRC, err := rc.WithParams(params)
		if err != nil {
			return nil, fmt.Errorf("row %d: %v", ri+1, err)
		}
		tuned := harness.MeasureFixed(tunedRC, frames)
		cell := harness.SpeedupCell{
			Scene: sc.Name, Algorithm: algo, Base: base, Tuned: tuned,
			TunedParams: params, ConvergedAt: -1,
		}
		cells = append(cells, cell)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "measured %-12s %-10s base %v tuned %v speedup %.2fx\n",
				cell.Scene, cell.Algorithm, base, tuned, cell.Speedup())
		}
	}
	return cells, nil
}
