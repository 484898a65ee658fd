// Command kdtune runs the online-autotuned frame loop of the paper's
// Figure 4 on one scene and algorithm, printing the per-iteration trace:
// the configuration under test, the measured frame time, and convergence.
//
//	kdtune -scene Sponza -algo in-place -iters 100
//	kdtune -scene FairyForest -algo lazy -search exhaustive
//	kdtune -list-params
//	kdtune -scene Bunny -search fixed -params B=64,G=512,SB=2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"kdtune/internal/autotune"
	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

func main() {
	var (
		sceneName  = flag.String("scene", "Sponza", "scene name")
		algoName   = flag.String("algo", "in-place", "builder: node-level|nested|in-place|lazy")
		iters      = flag.Int("iters", 100, "max measurement cycles")
		width      = flag.Int("width", 192, "render width (height = 3/4 width)")
		workers    = flag.Int("workers", 0, "parallelism budget; 0 = all cores")
		seed       = flag.Int64("seed", 1, "tuner RNG seed")
		search     = flag.String("search", "nelder-mead", "nelder-mead|exhaustive|fixed")
		listParams = flag.Bool("list-params", false, "print the registered tunables as a markdown table and exit")
		params     = flag.String("params", "", "comma-separated name=value overrides for the base vector, e.g. B=64,G=512,SB=2")
	)
	flag.Parse()

	var algo kdtree.Algorithm
	found := false
	for _, a := range kdtree.Algorithms {
		if a.String() == *algoName {
			algo, found = a, true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	if *listParams {
		if err := printParamTable(os.Stdout, algo); err != nil {
			fail(err)
		}
		return
	}

	sc, err := scene.ByName(*sceneName)
	if err != nil {
		fail(err)
	}

	rc := harness.RunConfig{
		Scene: sc, Algorithm: algo, Workers: *workers,
		Width: *width, MaxIterations: *iters, Seed: *seed,
	}
	switch *search {
	case "nelder-mead":
		rc.Search = harness.SearchNelderMead
	case "exhaustive":
		rc.Search = harness.SearchExhaustive
		rc.ExhaustiveStrides = []int{12, 10, 2, 2}
	case "fixed":
		rc.Search = harness.SearchFixed
	default:
		fail(fmt.Errorf("unknown search %q", *search))
	}
	overrides, err := parseParams(*params)
	if err != nil {
		fail(err)
	}
	if rc, err = rc.WithParams(overrides); err != nil {
		fail(fmt.Errorf("-params: %w", err))
	}

	fmt.Printf("tuning %s with the %s builder (%s search)\n", sc, algo, *search)
	fixed := rc
	fixed.Search, fixed.MaxIterations = harness.SearchFixed, 5
	baseRun := harness.Run(fixed)
	totals := make([]time.Duration, len(baseRun.Frames))
	for i, f := range baseRun.Frames {
		totals[i] = f.Total
	}
	base := harness.MedianDuration(totals)
	fmt.Printf("base configuration [%s]: median frame %v\n\n",
		autotune.FormatParams(baseRun.TunedParams, baseRun.ParamNames), base.Round(time.Millisecond))

	res := harness.Run(rc)
	for _, f := range res.Frames {
		marker := ""
		if res.ConvergedAt >= 0 && f.Iteration == res.ConvergedAt {
			marker = "   <- converged"
		}
		vec := make(map[string]int, len(f.Params))
		for i, name := range res.ParamNames {
			vec[name] = f.Params[i]
		}
		fmt.Printf("iter %3d  frame %3d  [%s]  build %8s  render %8s  total %8s  speedup %.2fx%s\n",
			f.Iteration, f.FrameIndex, autotune.FormatParams(vec, res.ParamNames),
			f.Build.Round(time.Millisecond), f.Render.Round(time.Millisecond),
			f.Total.Round(time.Millisecond),
			float64(base)/float64(f.Total), marker)
	}

	fmt.Printf("\nbest configuration [%s], steady-state frame %v, speedup %.2fx\n",
		autotune.FormatParams(res.TunedParams, res.ParamNames),
		res.BestTotal.Round(time.Millisecond),
		float64(base)/float64(res.BestTotal))
}

// printParamTable renders the full tunable registry of one run as a markdown
// table — the source of the README "Tunables" section.
func printParamTable(w *os.File, algo kdtree.Algorithm) error {
	var vars harness.TunedVars
	reg, err := harness.ComposeRegistry(algo, &vars)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "| Name | Range | Scale | Description |")
	fmt.Fprintln(w, "|------|-------|-------|-------------|")
	for _, tn := range reg.Tunables() {
		rng := fmt.Sprintf("[%d, %d]", tn.Min, tn.Max)
		scale := tn.Scale.String()
		if tn.Scale == autotune.ScaleLinear && tn.Step > 1 {
			scale = fmt.Sprintf("linear, step %d", tn.Step)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", tn.Name, rng, scale, tn.Desc)
	}
	return nil
}

// parseParams parses "name=value,..." into a named vector. Names and
// ranges are checked by RunConfig.WithParams, the same mapping every tuned
// vector takes back onto a run.
func parseParams(spec string) (map[string]int, error) {
	params := map[string]int{}
	if spec == "" {
		return params, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("-params: %q is not name=value", kv)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("-params: %s: %v", name, err)
		}
		params[name] = v
	}
	return params, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "kdtune: %v\n", err)
	os.Exit(1)
}
