package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/oracle"
	"kdtune/internal/render"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// The rebuild workload: the paper's Figure 4 loop under SearchFixed, driven
// by the benchmark's own loop. Static Sibenik, nested builder at C_base,
// two workers; one op is one guarded build plus one small scalar render.
const (
	rebuildScene   = "Sibenik"
	rebuildWorkers = 2
	rebuildWidth   = 64 // 64×48 scalar frame
	rebuildHeight  = 48
	// Every rebuildCheckEvery-th op (and the first) is checked against
	// Tree.Validate and the brute-force ray oracle, outside the timed op.
	rebuildCheckEvery = 16
	// oracleRays is the number of camera and of random rays the oracle
	// reference is prepared with.
	oracleRays = 128
	// In traced runs, every rebuildW1Every-th op is followed by one more
	// build of the same frame at one worker (the single-threaded baseline).
	rebuildW1Every = 4
)

// rebuildState is what one set-up produces: the scene, its frame, the
// Builder and framebuffer the loop reuses.
type rebuildState struct {
	sc     *scene.Scene
	tris   []vecmath.Triangle
	b      *kdtree.Builder
	im     *render.Image
	cfg    kdtree.Config
	genDur time.Duration
}

func rebuildConfig(workers int) kdtree.Config {
	cfg := kdtree.BaseConfig(kdtree.AlgoNested)
	cfg.Workers = workers
	return cfg
}

// setupRebuild generates the scene and makes the first build: the
// program's own set-up before the first op.
func setupRebuild() (*rebuildState, error) {
	t0 := time.Now()
	sc, err := scene.ByName(rebuildScene)
	if err != nil {
		return nil, err
	}
	st := &rebuildState{sc: sc, genDur: time.Since(t0), b: kdtree.NewBuilder(), cfg: rebuildConfig(rebuildWorkers)}
	st.tris = sc.Triangles(0)
	if _, err := st.b.BuildGuarded(st.tris, st.cfg, kdtree.Guard{}); err != nil {
		return nil, fmt.Errorf("first build: %w", err)
	}
	st.im = render.NewImage(rebuildWidth, rebuildHeight)
	return st, nil
}

func runRebuild(o options) (*outcome, error) {
	var gens []float64
	setups, st, err := timeSetups(func() (*rebuildState, error) {
		st, err := setupRebuild()
		if err == nil {
			gens = append(gens, float64(st.genDur)/1e6)
		}
		return st, err
	}, nil)
	if err != nil {
		return nil, err
	}

	// Oracle preparation: seeded rays and their brute-force ground truth.
	// Not part of set-up: the program never does this.
	oo := oracle.Options{CameraRays: oracleRays, RandomRays: oracleRays, Seed: o.seed, Workers: rebuildWorkers}
	rays := oracle.SceneRays(st.sc, 0, oracle.BoundsOf(st.tris), oo)
	ref := oracle.NewReference(st.tris, rays, 1e-9, math.Inf(1), oo)

	out := &outcome{setups: setups, layers: map[string]metric{}}
	var (
		tr               *tracer
		traced, untraced []float64
		w1               []float64
		treeStats        kdtree.BuildStats // of the last correct op's tree
		lastRender       render.RenderStats
		measured         time.Duration
		t                tally
		gcw              gcWindow
		view             = st.sc.ViewAt(0)
		ropt             = render.Options{Width: rebuildWidth, Height: rebuildHeight, Workers: rebuildWorkers}
		w1cfg            = rebuildConfig(1)
		wantRays         = rebuildWidth * rebuildHeight
	)
	if o.trace {
		tr = newTracer(time.Now())
		gcw = startGCWindow()
	}
	for op := int64(0); measured < o.window; op++ {
		opTr := tr
		if op%2 == 0 {
			opTr = nil // traced runs alternate untraced and traced ops
		}
		t0 := time.Now()
		root := opTr.begin("bench", "op", -1, op)
		bs := opTr.begin("kdtree", "BuildGuarded", root, op)
		tree, err := st.b.BuildGuarded(st.tris, st.cfg, kdtree.Guard{})
		opTr.end(bs)
		var rs render.RenderStats
		if err == nil {
			rsp := opTr.begin("render", "RenderInto", root, op)
			rs = render.RenderInto(st.im, tree, view, st.sc.Lights, ropt)
			opTr.end(rsp)
		}
		opTr.end(root)
		d := time.Since(t0)
		measured += d

		ok := err == nil && rs.PrimaryRays == wantRays && !rs.Canceled
		if ok {
			treeStats, lastRender = tree.Stats(), rs
		}
		if ok && op%rebuildCheckEvery == 0 {
			if err := checkRebuildTree(tree, ref); err != nil {
				fmt.Fprintf(os.Stderr, "rebuild: op %d: %v\n", op, err)
				ok = false
			}
		}
		if tr != nil && op%rebuildW1Every == 0 {
			w0 := time.Now()
			if _, err := st.b.BuildGuarded(st.tris, w1cfg, kdtree.Guard{}); err == nil {
				w1 = append(w1, float64(time.Since(w0))/1e6)
			}
		}
		t.record(ok)
		if ok {
			out.ops = append(out.ops, d)
		}
		if opTr == nil {
			untraced = append(untraced, float64(d)/1e6)
		} else {
			traced = append(traced, float64(d)/1e6)
		}
	}
	out.attempted, out.failed = t.attempted, t.failed
	out.slices = splitRun(out.ops, runSlices)
	out.rates = sliceRates(out.slices)
	if !o.trace {
		return out, nil
	}

	L := out.layers
	gcw.addTo(L, len(out.ops))
	out.spans = tr.spans
	addSelfTimes(L, out.spans)
	L["trace.overhead_pct"] = metric{overheadPct(traced, untraced), "%"}
	L["scene.generate_ms"] = metric{median(gens), "ms"}
	L["scene.triangles_ms_p50"] = metric{median(timeTriangles(st.sc, []int{0}, 21)), "ms"}
	build := spanMS(out.spans, "kdtree")
	L["kdtree.build_ms_p50"] = metric{percentile(build, 0.5), "ms"}
	L["kdtree.build_ms_p90"] = metric{percentile(build, 0.9), "ms"}
	L["kdtree.build_w1_ms_p50"] = metric{median(w1), "ms"}
	if b := median(build); b > 0 {
		L["kdtree.speedup_w2"] = metric{median(w1) / b, "x"}
	}
	if treeStats.NumNodes > 0 {
		addTreeStats(L, treeStats)
		renderMS := median(spanMS(out.spans, "render"))
		L["render.render_ms_p50"] = metric{renderMS, "ms"}
		if rays := lastRender.PrimaryRays + lastRender.ShadowRays; rays > 0 {
			L["render.ns_per_ray"] = metric{renderMS * 1e6 / float64(rays), "ns"}
		}
		addRenderCounts(L, lastRender)
	}
	addBuildAllocs(L, st.b, st.tris, st.cfg)
	return out, nil
}

// checkRebuildTree runs the structural validator and the ray oracle.
func checkRebuildTree(tree *kdtree.Tree, ref *oracle.Reference) error {
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	return ref.CheckTree(tree, rebuildScene)
}

// timeTriangles times Scene.Triangles over the frames, reps times each,
// returning milliseconds per call.
func timeTriangles(sc *scene.Scene, frames []int, reps int) []float64 {
	var out []float64
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			t0 := time.Now()
			sc.Triangles(f)
			out = append(out, float64(time.Since(t0))/1e6)
		}
	}
	return out
}

func addTreeStats(L map[string]metric, s kdtree.BuildStats) {
	L["kdtree.nodes"] = metric{float64(s.NumNodes), "count"}
	L["kdtree.leaf_refs"] = metric{float64(s.LeafRefs), "count"}
	L["kdtree.max_depth"] = metric{float64(s.MaxDepth), "count"}
}

// addRenderCounts reports exact render counters: rays traced (primary +
// shadow), hits, and demotions per packet ray.
func addRenderCounts(L map[string]metric, rs render.RenderStats) {
	L["render.rays"] = metric{float64(rs.PrimaryRays + rs.ShadowRays), "count"}
	L["render.hits"] = metric{float64(rs.Hits), "count"}
	if rs.PacketRays > 0 {
		L["render.demotion_ratio"] = metric{float64(rs.Demotions) / float64(rs.PacketRays), "ratio"}
	}
}

// addBuildAllocs reports the median heap allocations and bytes of three
// warm guarded builds on b (after one warm-up build).
func addBuildAllocs(L map[string]metric, b *kdtree.Builder, tris []vecmath.Triangle, cfg kdtree.Config) {
	var allocs, bytes []float64
	_, _ = b.BuildGuarded(tris, cfg, kdtree.Guard{})
	for i := 0; i < 3; i++ {
		a, by := allocsOf(func() { _, _ = b.BuildGuarded(tris, cfg, kdtree.Guard{}) })
		allocs, bytes = append(allocs, a), append(bytes, by)
	}
	L["kdtree.allocs_per_build"] = metric{median(allocs), "count"}
	L["kdtree.bytes_per_build"] = metric{median(bytes), "bytes"}
}
