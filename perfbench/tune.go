package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

// The tune workload: back-to-back seeded harness.Run sessions under
// Nelder–Mead on the dynamic WoodDoll, in-place builder, two workers, over
// the full registered vector, with the harness's 10× build watchdog. One op
// is one frame (FrameRecord.Total).
const (
	tuneScene   = "WoodDoll"
	tuneWorkers = 2
	tuneWidth   = 64 // 64×48 frames
	// tuneIterations is each session's fixed frame budget: the first 12 of
	// WoodDoll's 29 frames, each repeated 5 times (§V-C). Sessions of
	// ~4.5 s let a 30-s window average over about seven tuner seeds.
	tuneIterations = 60
	// tuneDeadlineFactor is the harness watchdog: a build is aborted past
	// 10× the incumbent frame time and counted as censored.
	tuneDeadlineFactor = 10
)

// tuneState is one set-up: the generated scene and its first frame.
type tuneState struct {
	sc     *scene.Scene
	genDur time.Duration
}

// setupTune is the tuning loop's set-up outside harness.Run: generating the
// scene and materialising its first frame (Builder and framebuffer are made
// inside each session, so their cost is part of the op wall time).
func setupTune() (*tuneState, error) {
	t0 := time.Now()
	sc, err := scene.ByName(tuneScene)
	if err != nil {
		return nil, err
	}
	st := &tuneState{sc: sc, genDur: time.Since(t0)}
	if n := len(sc.Triangles(0)); n == 0 {
		return nil, fmt.Errorf("%s frame 0 has no triangles", tuneScene)
	}
	return st, nil
}

// tuneSession is one measured harness.Run.
type tuneSession struct {
	res  *harness.RunResult
	wall time.Duration
}

func runTune(o options) (*outcome, error) {
	var gens []float64
	setups, st, err := timeSetups(func() (*tuneState, error) {
		st, err := setupTune()
		if err == nil {
			gens = append(gens, float64(st.genDur)/1e6)
		}
		return st, err
	}, nil)
	if err != nil {
		return nil, err
	}

	out := &outcome{setups: setups, layers: map[string]metric{}}
	var (
		tr               *tracer
		gcw              gcWindow
		sessions         []tuneSession
		traced, untraced []float64
		bestStats        kdtree.BuildStats // of the last checked best vector
		bestCfg          kdtree.Config
		t                tally
	)
	if o.trace {
		tr = newTracer(time.Now())
		gcw = startGCWindow()
	}
	// Whole sessions run while the measured time is inside the window; the
	// last one may end past it.
	var measured time.Duration
	for i := int64(0); measured < o.window; i++ {
		sTr := tr
		if i%2 == 0 {
			sTr = nil // traced runs alternate untraced and traced sessions
		}
		rc := harness.RunConfig{
			Scene: st.sc, Algorithm: kdtree.AlgoInPlace, Search: harness.SearchNelderMead,
			Workers: tuneWorkers, Width: tuneWidth, Seed: o.seed*1000 + i,
			MaxIterations: tuneIterations, DeadlineFactor: tuneDeadlineFactor,
		}
		runtime.GC() // every session starts from the same heap state
		t0 := time.Now()
		sp := sTr.begin("harness", "Run", -1, i)
		res := harness.Run(rc)
		sTr.end(sp)
		wall := time.Since(t0)
		measured += wall
		sessions = append(sessions, tuneSession{res, wall})

		cfg, stats, err := checkTuneSession(st.sc, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tune: session %d: %v\n", i, err)
		} else {
			bestStats, bestCfg = stats, cfg
			frames := make([]time.Duration, len(res.Frames))
			for k, f := range res.Frames {
				frames[k] = f.Total
			}
			out.slices = append(out.slices, frames)
			out.rates = append(out.rates, float64(len(res.Frames))/wall.Seconds())
		}
		for _, f := range res.Frames {
			ok := err == nil
			t.record(ok)
			if ok {
				out.ops = append(out.ops, f.Total)
			}
			if sTr == nil {
				untraced = append(untraced, float64(f.Total)/1e6)
			} else {
				traced = append(traced, float64(f.Total)/1e6)
			}
		}
		// Frames the budget promised but the session never recorded.
		for n := len(res.Frames); n < tuneIterations; n++ {
			t.record(false)
		}
	}
	out.attempted, out.failed = t.attempted, t.failed
	if !o.trace {
		return out, nil
	}

	L := out.layers
	gcw.addTo(L, len(out.ops))
	L["trace.overhead_pct"] = metric{overheadPct(traced, untraced), "%"}
	L["scene.generate_ms"] = metric{median(gens), "ms"}
	frames := make([]int, st.sc.Frames)
	for i := range frames {
		frames[i] = i
	}
	L["scene.triangles_ms_p50"] = metric{median(timeTriangles(st.sc, frames, 3)), "ms"}

	var build, rend, sessionMS, loopSelf, best, distinct, converged, censored []float64
	for _, s := range sessions {
		var sum time.Duration
		seen := map[string]bool{}
		for _, f := range s.res.Frames {
			build = append(build, float64(f.Build)/1e6)
			rend = append(rend, float64(f.Render)/1e6)
			sum += f.Total
			seen[fmt.Sprint(f.Params)] = true
		}
		n := float64(max(len(s.res.Frames), 1))
		sessionMS = append(sessionMS, float64(s.wall)/1e6)
		loopSelf = append(loopSelf, float64(s.wall-sum)/1e6/n)
		best = append(best, float64(s.res.BestTotal)/1e6)
		distinct = append(distinct, float64(len(seen)))
		converged = append(converged, float64(s.res.ConvergedAt))
		censored = append(censored, float64(s.res.AbortedBuilds))
	}
	L["kdtree.build_ms_p50"] = metric{percentile(build, 0.5), "ms"}
	L["kdtree.build_ms_p90"] = metric{percentile(build, 0.9), "ms"}
	L["render.render_ms_p50"] = metric{median(rend), "ms"}
	L["harness.session_ms_p50"] = metric{median(sessionMS), "ms"}
	L["harness.loop_self_ms"] = metric{median(loopSelf), "ms"}
	L["autotune.best_ms"] = metric{median(best), "ms"}
	L["autotune.distinct_configs"] = metric{median(distinct), "count"}
	L["autotune.converged_at"] = metric{median(converged), "count"}
	L["autotune.censored"] = metric{mean(censored), "count"}
	if bestStats.NumNodes > 0 {
		addTreeStats(L, bestStats)
		addBuildAllocs(L, kdtree.NewBuilder(), st.sc.Triangles(0), bestCfg)
	}
	out.spans = tr.spans
	addSelfTimes(L, out.spans)
	return out, nil
}

// checkTuneSession is the session's output check: every budgeted frame
// recorded and rendered (an aborted build renders from the median fallback,
// so every abort needs a fallback frame), and the best vector builds a
// WoodDoll frame-0 tree that passes Validate. It returns that configuration
// and the tree's statistics.
func checkTuneSession(sc *scene.Scene, res *harness.RunResult) (kdtree.Config, kdtree.BuildStats, error) {
	if len(res.Frames) != tuneIterations {
		return kdtree.Config{}, kdtree.BuildStats{}, fmt.Errorf("%d of %d frames recorded", len(res.Frames), tuneIterations)
	}
	if res.FallbackFrames != res.AbortedBuilds {
		return kdtree.Config{}, kdtree.BuildStats{}, fmt.Errorf("%d aborted builds but %d fallback frames",
			res.AbortedBuilds, res.FallbackFrames)
	}
	if res.BestTotal <= 0 {
		return kdtree.Config{}, kdtree.BuildStats{}, fmt.Errorf("no steady-state frame time (%v)", res.BestTotal)
	}
	p := res.TunedParams
	cfg := kdtree.Config{
		Algorithm: kdtree.AlgoInPlace,
		CI:        float64(p["CI"]), CB: float64(p["CB"]), S: p["S"],
		Workers: tuneWorkers,
		Bins:    p["B"], ScatterGrain: p["G"], BinGrain: p["GB"], SplitBias: p["SB"],
	}
	tree, err := kdtree.NewBuilder().BuildGuarded(sc.Triangles(0), cfg, kdtree.Guard{})
	if err != nil {
		return cfg, kdtree.BuildStats{}, fmt.Errorf("best vector %v: %w", p, err)
	}
	if err := tree.Validate(); err != nil {
		return cfg, kdtree.BuildStats{}, fmt.Errorf("best vector %v: validate: %w", p, err)
	}
	return cfg, tree.Stats(), nil
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
