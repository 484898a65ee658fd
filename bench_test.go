// Benchmarks regenerating the paper's tables and figures at reduced scale.
//
// Each paper artefact has a bench: Table I/II and Figures 5-9. The benches
// run the same code paths as cmd/kdbench but with smaller scenes, lower
// resolutions and tighter iteration budgets so `go test -bench=.` finishes
// in minutes; cmd/kdbench regenerates the full-scale numbers recorded in
// EXPERIMENTS.md. The ablation benches at the bottom cover the design
// choices called out in DESIGN.md §5.
package kdtune

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"kdtune/internal/bvh"
	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/oracle"
	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// sceneCache avoids regenerating procedural scenes per bench.
var sceneCache sync.Map

func cachedScene(b *testing.B, name string) *scene.Scene {
	if sc, ok := sceneCache.Load(name); ok {
		return sc.(*scene.Scene)
	}
	sc, err := scene.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	sceneCache.Store(name, sc)
	return sc
}

// tunedCache holds one tuned configuration per (scene, algorithm), found
// once by a reduced-budget Nelder-Mead run.
var tunedCache sync.Map

// benchRun is the run configuration the frame benches measure.
func benchRun(sc *scene.Scene, algo kdtree.Algorithm) harness.RunConfig {
	return harness.RunConfig{Scene: sc, Algorithm: algo, Width: 96, Height: 72}
}

// mapped runs a named vector through RunConfig.WithParams.
func mapped(b *testing.B, rc harness.RunConfig, params map[string]int) harness.RunConfig {
	rc, err := rc.WithParams(params)
	if err != nil {
		b.Fatal(err)
	}
	return rc
}

func tunedConfig(b *testing.B, sc *scene.Scene, algo kdtree.Algorithm) harness.RunConfig {
	key := sc.Name + "/" + algo.String()
	if c, ok := tunedCache.Load(key); ok {
		return c.(harness.RunConfig)
	}
	rc := benchRun(sc, algo)
	tune := rc
	tune.Search, tune.MaxIterations, tune.Seed = harness.SearchNelderMead, 40, 7
	tuned := mapped(b, rc, harness.Run(tune).TunedParams)
	tunedCache.Store(key, tuned)
	return tuned
}

// frame executes one Figure-4 frame of rc's base vector: rebuild the tree,
// render.
func frame(sc *scene.Scene, frameIdx int, rc harness.RunConfig) {
	tris := sc.Triangles(frameIdx)
	tree := kdtree.Build(tris, rc.Base)
	Render(tree, sc.View, sc.Lights, RenderOptions{
		Width: rc.Width, Height: rc.Height,
		PacketWidth: rc.PacketWidth, TileSize: rc.TileSize,
	})
}

func renderFrame(tree *kdtree.Tree, sc *scene.Scene) {
	Render(tree, sc.View, sc.Lights, RenderOptions{Width: 96, Height: 72})
}

// BenchmarkTableI builds each of the four algorithm variants (Table I lists
// their tunable parameters; this bench shows the per-variant construction
// cost those parameters act on) over the Toasters scene.
func BenchmarkTableI(b *testing.B) {
	sc := cachedScene(b, "Toasters")
	tris := sc.Triangles(0)
	for _, algo := range kdtree.Algorithms {
		b.Run(algo.String(), func(b *testing.B) {
			cfg := kdtree.BaseConfig(algo)
			for i := 0; i < b.N; i++ {
				kdtree.Build(tris, cfg)
			}
		})
	}
}

// tableIIRegistry registers the paper's Table II search space over the
// given targets.
func tableIIRegistry(b *testing.B, ci, cb, s, r *int) *TunableRegistry {
	reg := NewTunableRegistry()
	for _, tn := range []Tunable{
		{Name: "CI", Target: ci, Min: 3, Max: 101, Step: 1},
		{Name: "CB", Target: cb, Min: 0, Max: 60, Step: 1},
		{Name: "S", Target: s, Min: 1, Max: 8, Step: 1},
		{Name: "R", Target: r, Min: 16, Max: 8192, Scale: ScalePow2},
	} {
		if err := reg.Register(tn); err != nil {
			b.Fatal(err)
		}
	}
	return reg
}

// BenchmarkTableII measures the per-cycle overhead of the online tuner over
// the Table-II search space — the paper's "little runtime overhead" claim.
// The tuned region is a no-op, so ns/op is pure tuner cost.
func BenchmarkTableII(b *testing.B) {
	tuner := NewTuner(TunerOptions{Seed: 1})
	var ci, cb, s, r int
	if err := tuner.RegisterAll(tableIIRegistry(b, &ci, &cb, &s, &r)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.Start()
		tuner.StopWithCost(float64(ci + cb + s + r))
	}
}

// BenchmarkFigure5 reports absolute frame time under the base and the tuned
// configuration (Figure 5's bars) for the bench-sized scenes. The full
// three-scene version runs via `kdbench -experiment fig5`.
func BenchmarkFigure5(b *testing.B) {
	for _, name := range []string{"WoodDoll", "Toasters"} {
		sc := cachedScene(b, name)
		for _, algo := range kdtree.Algorithms {
			b.Run(fmt.Sprintf("%s/%s/base", name, algo), func(b *testing.B) {
				rc := mapped(b, benchRun(sc, algo), nil)
				for i := 0; i < b.N; i++ {
					frame(sc, i%sc.Frames, rc)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/tuned", name, algo), func(b *testing.B) {
				rc := tunedConfig(b, sc, algo)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					frame(sc, i%sc.Frames, rc)
				}
			})
		}
	}
}

// BenchmarkFigure6 reports the Figure 6 statistic — tuned-vs-base speedup —
// as a custom metric per scene/algorithm pair.
func BenchmarkFigure6(b *testing.B) {
	for _, name := range []string{"WoodDoll", "Toasters"} {
		sc := cachedScene(b, name)
		for _, algo := range kdtree.Algorithms {
			b.Run(fmt.Sprintf("%s/%s", name, algo), func(b *testing.B) {
				base := harness.MeasureFixed(benchRun(sc, algo), 5)
				rc := tunedConfig(b, sc, algo)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					frame(sc, i%sc.Frames, rc)
				}
				b.StopTimer()
				tuned := b.Elapsed() / time.Duration(max(1, b.N))
				if tuned > 0 {
					b.ReportMetric(float64(base)/float64(tuned), "speedup")
				}
			})
		}
	}
}

// BenchmarkFigure7 runs one full tuning run per iteration (the unit Figure
// 7's distributions are built from: 15 tuned configurations per scene).
func BenchmarkFigure7(b *testing.B) {
	sc := cachedScene(b, "WoodDoll")
	for i := 0; i < b.N; i++ {
		harness.Run(harness.RunConfig{
			Scene: sc, Algorithm: kdtree.AlgoInPlace, Search: harness.SearchNelderMead,
			Width: 64, Height: 48, MaxIterations: 25, Seed: int64(i + 1),
		})
	}
}

// BenchmarkFigure8 measures the tuner's convergence speed (Figure 8: stable
// state "after just about 40 iterations"): one op = driving the 4-D tuner
// to convergence on a smooth synthetic surface; the iterations metric is
// the paper-comparable number.
func BenchmarkFigure8(b *testing.B) {
	totalIters := 0
	for i := 0; i < b.N; i++ {
		tuner := NewTuner(TunerOptions{Seed: int64(i + 1)})
		var ci, cb, s, r int
		if err := tuner.RegisterAll(tableIIRegistry(b, &ci, &cb, &s, &r)); err != nil {
			b.Fatal(err)
		}
		for iter := 0; iter < 300 && !tuner.Converged(); iter++ {
			tuner.Start()
			cost := math.Abs(float64(ci)-40)/40 + math.Abs(float64(cb)-15)/15 +
				math.Abs(float64(s)-5)/5 + math.Abs(math.Log2(float64(r))-9)
			tuner.StopWithCost(1 + cost)
			totalIters++
		}
	}
	b.ReportMetric(float64(totalIters)/float64(b.N), "iters/convergence")
}

// BenchmarkFigure9 compares the three configuration policies of §V-D4 on
// the bench-sized scene: one op = one frame under the configuration each
// policy chose (default / Nelder-Mead / strided exhaustive).
func BenchmarkFigure9(b *testing.B) {
	sc := cachedScene(b, "WoodDoll")
	algo := kdtree.AlgoInPlace

	configs := map[string]harness.RunConfig{}
	var once sync.Once
	prepare := func(b *testing.B) {
		once.Do(func() {
			configs["default"] = mapped(b, benchRun(sc, algo), nil)
			configs["nelder-mead"] = tunedConfig(b, sc, algo)
			res := harness.Run(harness.RunConfig{
				Scene: sc, Algorithm: algo, Search: harness.SearchExhaustive,
				ExhaustiveStrides: []int{25, 20, 4},
				Width:             64, Height: 48, MaxIterations: 1 << 20, PostConverge: 1,
			})
			configs["exhaustive"] = mapped(b, benchRun(sc, algo), res.TunedParams)
		})
	}
	for _, policy := range []string{"default", "nelder-mead", "exhaustive"} {
		b.Run(policy, func(b *testing.B) {
			prepare(b)
			rc := configs[policy]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame(sc, i%sc.Frames, rc)
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §5) ---

func randomBoxes(n int) (vecmath.AABB, []vecmath.AABB) {
	node := vecmath.NewAABB(vecmath.V(0, 0, 0), vecmath.V(10, 10, 10))
	boxes := make([]vecmath.AABB, n)
	for i := range boxes {
		h := uint64(i)*0x9E3779B97F4A7C15 + 12345
		f := func() float64 { h ^= h >> 29; h *= 0xBF58476D1CE4E5B9; return float64(h%10000) / 1000 }
		c := vecmath.V(f(), f(), f())
		d := vecmath.V(f()/20+0.01, f()/20+0.01, f()/20+0.01)
		boxes[i] = vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
	}
	return node, boxes
}

// BenchmarkSplitSweepVsBinned contrasts the exact event-sweep split search
// with the binned approximation on identical inputs.
func BenchmarkSplitSweepVsBinned(b *testing.B) {
	node, boxes := randomBoxes(20000)
	p := sah.DefaultParams()
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sah.FindBestSplitSweep(nil, p, node, boxes, 1)
		}
	})
	b.Run("binned32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sah.FindBestSplitBinned(p, node, boxes, 32)
		}
	})
	b.Run("binned128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sah.FindBestSplitBinned(p, node, boxes, 128)
		}
	})
}

// BenchmarkSpawnDepth sweeps the S parameter (task spawn budget) for the
// node-level builder: the knob Figure 7 shows shifting across platforms.
func BenchmarkSpawnDepth(b *testing.B) {
	sc := cachedScene(b, "Toasters")
	tris := sc.Triangles(0)
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			cfg := kdtree.BaseConfig(kdtree.AlgoNodeLevel)
			cfg.S = s
			for i := 0; i < b.N; i++ {
				kdtree.Build(tris, cfg)
			}
		})
	}
}

// BenchmarkParallelForChunk sweeps the grain size of the parallel-for
// substrate under a cheap body, exposing dispatch overhead.
func BenchmarkParallelForChunk(b *testing.B) {
	data := make([]float64, 1<<20)
	for _, grain := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("grain=%d", grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parallel.ForChunks(nil, len(data), 0, grain, func(_, lo, hi int) {
					for j := lo; j < hi; j++ {
						data[j] = data[j]*0.5 + 1
					}
				})
			}
		})
	}
}

// BenchmarkScan measures the parallel exclusive prefix sum against its
// sequential fallback (the nested/in-place builders' core primitive).
func BenchmarkScan(b *testing.B) {
	src := make([]int, 1<<20)
	dst := make([]int, len(src))
	for i := range src {
		src[i] = i & 7
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.ExclusiveScan(nil, dst, src, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.ExclusiveScan(nil, dst, src, 0)
		}
	})
}

// BenchmarkLazyOcclusion sweeps the lazy threshold R on the occluded Fairy
// Forest scene — the paper's motivating case for the R parameter. One op is
// a full frame (build + render), so the metric includes the expansion work
// rays actually trigger.
func BenchmarkLazyOcclusion(b *testing.B) {
	sc := cachedScene(b, "FairyForest")
	tris := sc.Triangles(0)
	for _, r := range []int{16, 256, 4096, 8192} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			cfg := kdtree.BaseConfig(kdtree.AlgoLazy)
			cfg.R = r
			for i := 0; i < b.N; i++ {
				tree := kdtree.Build(tris, cfg)
				renderFrame(tree, sc)
			}
		})
	}
}

// BenchmarkSeedCount sweeps the random-sampling budget that seeds the
// Nelder-Mead simplex, reporting the achieved optimum quality.
func BenchmarkSeedCount(b *testing.B) {
	for _, seeds := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("seeds=%d", seeds), func(b *testing.B) {
			totalBest := 0.0
			for i := 0; i < b.N; i++ {
				tuner := NewTuner(TunerOptions{Seed: int64(i + 1), SeedSamples: seeds})
				var x, y int
				reg := NewTunableRegistry()
				for _, tn := range []Tunable{
					{Name: "x", Target: &x, Min: 0, Max: 100, Step: 1},
					{Name: "y", Target: &y, Min: 0, Max: 100, Step: 1},
				} {
					if err := reg.Register(tn); err != nil {
						b.Fatal(err)
					}
				}
				if err := tuner.RegisterAll(reg); err != nil {
					b.Fatal(err)
				}
				for iter := 0; iter < 150 && !tuner.Converged(); iter++ {
					tuner.Start()
					dx, dy := float64(x-70), float64(y-30)
					tuner.StopWithCost(1 + dx*dx + dy*dy + 50*math.Sin(float64(x)/7)*math.Sin(float64(y)/9))
				}
				_, best, _ := tuner.Best()
				totalBest += best
			}
			b.ReportMetric(totalBest/float64(b.N), "avg-best-cost")
		})
	}
}

// BenchmarkTraversal measures closest-hit queries on a prebuilt tree, the
// t_r half of the paper's objective function.
func BenchmarkTraversal(b *testing.B) {
	sc := cachedScene(b, "Sponza")
	tree := kdtree.Build(sc.Triangles(0), kdtree.BaseConfig(kdtree.AlgoInPlace))
	rays := make([]vecmath.Ray, 1024)
	for i := range rays {
		h := uint64(i)*0x9E3779B97F4A7C15 + 99
		f := func() float64 { h ^= h >> 29; h *= 0xBF58476D1CE4E5B9; return float64(h%2000)/1000 - 1 }
		rays[i] = vecmath.NewRay(vecmath.V(-10, 4, 0), vecmath.V(1, f()*0.5, f()*0.5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rays[i%len(rays)]
		tree.Intersect(r, 1e-9, math.Inf(1))
	}
}

// BenchmarkPacketTraversal puts the packet walk next to the scalar walk on
// the same ray load: one op traces 1024 camera-coherent rays, at width 1
// (the scalar loop) and packet widths 4/8/16. The demotions/ray metric
// shows how much of the packet win survives the scene's divergence.
func BenchmarkPacketTraversal(b *testing.B) {
	sc := cachedScene(b, "Sponza")
	tree := kdtree.Build(sc.Triangles(0), kdtree.BaseConfig(kdtree.AlgoInPlace))
	rays := make([]vecmath.Ray, 1024)
	for i := range rays {
		// A coherent 32x32 fan, raster order — the renderer's packet shape.
		u := float64(i%32)/32 - 0.5
		v := float64(i/32)/32 - 0.5
		rays[i] = vecmath.NewRay(vecmath.V(-10, 4, 0), vecmath.V(1, u*0.6, v*0.6))
	}
	for _, w := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			var ps kdtree.PacketScratch
			demoted := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w == 1 {
					for _, r := range rays {
						tree.Intersect(r, 1e-9, math.Inf(1))
					}
					continue
				}
				for s := 0; s < len(rays); s += w {
					demoted += tree.IntersectPacket(&ps, rays[s:s+w], 1e-9, math.Inf(1))
				}
			}
			if w > 1 {
				b.ReportMetric(float64(demoted)/float64(b.N*len(rays)), "demotions/ray")
			}
		})
	}
}

// BenchmarkIntersectSoA isolates the leaf kernel change: Möller–Trumbore
// with edges recomputed per test (the old AoS Triangle.IntersectRay) versus
// the precomputed SoA form the tree's leaves now store. One op tests one ray
// against every triangle in the scene.
func BenchmarkIntersectSoA(b *testing.B) {
	sc := cachedScene(b, "Toasters")
	tris := sc.Triangles(0)
	a := make([]vecmath.Vec3, len(tris))
	e1 := make([]vecmath.Vec3, len(tris))
	e2 := make([]vecmath.Vec3, len(tris))
	for i, t := range tris {
		a[i] = t.A
		e1[i] = t.B.Sub(t.A)
		e2[i] = t.C.Sub(t.A)
	}
	ray := vecmath.NewRay(vecmath.V(-12, 3, 0), vecmath.V(1, 0.05, 0.02))
	b.Run("aos-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range tris {
				tris[j].IntersectRay(ray, 1e-9, math.Inf(1))
			}
		}
	})
	b.Run("soa-precomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range a {
				vecmath.IntersectRayPre(&a[j], &e1[j], &e2[j], &ray.Origin, &ray.Dir, 1e-9, math.Inf(1))
			}
		}
	})
}

// BenchmarkMedianVsSAH ablates the SAH itself: frame time (build + render)
// with the SAH node-level builder vs the naive spatial-median baseline.
// The SAH pays cost-model evaluation per split and earns it back both in
// traversal and in avoided duplication — the trade-off the CI/CB
// parameters (and hence the autotuner) steer.
func BenchmarkMedianVsSAH(b *testing.B) {
	sc := cachedScene(b, "Sponza")
	for _, algo := range []kdtree.Algorithm{kdtree.AlgoNodeLevel, kdtree.AlgoMedian} {
		b.Run(algo.String()+"/build", func(b *testing.B) {
			cfg := kdtree.BaseConfig(algo)
			tris := sc.Triangles(0)
			for i := 0; i < b.N; i++ {
				kdtree.Build(tris, cfg)
			}
		})
		b.Run(algo.String()+"/render", func(b *testing.B) {
			cfg := kdtree.BaseConfig(algo)
			tree := kdtree.Build(sc.Triangles(0), cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				renderFrame(tree, sc)
			}
		})
	}
}

// BenchmarkKDTreeVsBVH puts the paper's structure next to the other
// standard acceleration structure (the related work's BVH): build cost and
// closest-hit traversal cost on the same scene.
func BenchmarkKDTreeVsBVH(b *testing.B) {
	sc := cachedScene(b, "Toasters")
	tris := sc.Triangles(0)
	rays := make([]vecmath.Ray, 1024)
	for i := range rays {
		h := uint64(i)*0x9E3779B97F4A7C15 + 7
		f := func() float64 { h ^= h >> 29; h *= 0xBF58476D1CE4E5B9; return float64(h%2000)/1000 - 1 }
		rays[i] = vecmath.NewRay(vecmath.V(-12, 3, 0), vecmath.V(1, f()*0.4, f()*0.4))
	}
	b.Run("kdtree/build", func(b *testing.B) {
		cfg := kdtree.BaseConfig(kdtree.AlgoInPlace)
		for i := 0; i < b.N; i++ {
			kdtree.Build(tris, cfg)
		}
	})
	b.Run("bvh/build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bvh.Build(tris, bvh.Config{})
		}
	})
	kd := kdtree.Build(tris, kdtree.BaseConfig(kdtree.AlgoInPlace))
	bv := bvh.Build(tris, bvh.Config{})
	b.Run("kdtree/intersect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kd.Intersect(rays[i%len(rays)], 1e-9, math.Inf(1))
		}
	})
	b.Run("bvh/intersect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bv.Intersect(rays[i%len(rays)], 1e-9, math.Inf(1))
		}
	})
}

// BenchmarkOracleReference measures the linear-scan reference intersector
// of the differential oracle (internal/oracle): the cost ceiling any
// kD-tree traversal must beat, and the price of one oracle validation ray.
func BenchmarkOracleReference(b *testing.B) {
	sc := cachedScene(b, "Toasters")
	tris := sc.Triangles(0)
	opts := oracle.Options{CameraRays: 128, RandomRays: 128, Seed: 1}
	rays := oracle.SceneRays(sc, 0, oracle.BoundsOf(tris), opts)
	ref := oracle.NewReference(tris, rays, 1e-9, math.Inf(1), opts)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracle.NewReference(tris, rays, 1e-9, math.Inf(1), opts)
		}
	})
	b.Run("check-tree", func(b *testing.B) {
		tree := kdtree.Build(tris, kdtree.BaseConfig(kdtree.AlgoInPlace))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ref.CheckTree(tree, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
