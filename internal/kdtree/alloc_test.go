package kdtree

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"kdtune/internal/vecmath"
)

// TestNodeSize pins the packed node layout: the traversal hot loop budgets
// four nodes per 64-byte cache line, so any field growth must be deliberate.
func TestNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s > 16 {
		t.Fatalf("node is %d bytes, want <= 16", s)
	}
}

// allocTestTree builds a single-worker tree for the allocation probes:
// parallel.SortFunc/ExclusiveScan allocate only on their spawn paths, so
// Workers=1 isolates the traversal/build steady state from scheduler noise.
func allocTestTree(t testing.TB, algo Algorithm, n int) (*Tree, []vecmath.Triangle) {
	r := rand.New(rand.NewSource(1905))
	tris := randomTriangles(r, n, 10, 0.2)
	cfg := BaseConfig(algo)
	cfg.Workers = 1
	cfg.S = 1
	return Build(tris, cfg), tris
}

// TestIntersectZeroAlloc: closest-hit and occlusion queries must not allocate
// as long as the traversal stack stays within its fixed 64-entry array.
func TestIntersectZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	tree, _ := allocTestTree(t, AlgoNodeLevel, 3000)
	r := rand.New(rand.NewSource(77))
	rays := make([]vecmath.Ray, 64)
	for i := range rays {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, -5)
		target := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		rays[i] = vecmath.Towards(origin, target)
	}
	var hits int
	if avg := testing.AllocsPerRun(200, func() {
		for _, ray := range rays {
			if _, ok := tree.Intersect(ray, 1e-9, math.Inf(1)); ok {
				hits++
			}
		}
	}); avg != 0 {
		t.Errorf("Intersect allocates %.1f objects per batch, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("no ray hit anything — the probe exercised nothing")
	}
	if avg := testing.AllocsPerRun(200, func() {
		for _, ray := range rays {
			tree.Occluded(ray, 1e-9, math.Inf(1))
		}
	}); avg != 0 {
		t.Errorf("Occluded allocates %.1f objects per batch, want 0", avg)
	}
}

// TestBuilderSteadyStateAllocs: after warmup, rebuilding the same geometry on
// a retained Builder must run out of the pooled arenas. The budget is a small
// constant — compare with the thousands of per-node allocations a throwaway
// pointer tree costs.
func TestBuilderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	if buildChecks {
		t.Skip("the parallelcheck invariant layer allocates per dispatch; counts are meaningless under -tags parallelcheck")
	}
	const budget = 32.0
	r := rand.New(rand.NewSource(42))
	tris := randomTriangles(r, 4000, 10, 0.2)
	for _, algo := range Algorithms {
		cfg := BaseConfig(algo)
		cfg.Workers = 1
		cfg.S = 1
		b := NewBuilder()
		b.Build(tris, cfg)
		b.Build(tris, cfg)
		avg := testing.AllocsPerRun(5, func() {
			b.Build(tris, cfg)
		})
		if avg > budget {
			t.Errorf("%v: steady-state rebuild allocates %.1f objects, budget %.0f", algo, avg, budget)
		}
	}
}

// BenchmarkBuilderRebuild measures the steady-state frame-loop rebuild: one
// retained Builder, same geometry every iteration. Run with -benchmem; the
// allocs/op column is the headline number of the pooled-arena design.
func BenchmarkBuilderRebuild(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	tris := randomTriangles(r, 10000, 10, 0.2)
	for _, algo := range Algorithms {
		b.Run(algo.String(), func(b *testing.B) {
			cfg := BaseConfig(algo)
			cfg.Workers = 1
			bd := NewBuilder()
			bd.Build(tris, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd.Build(tris, cfg)
			}
		})
	}
}

// BenchmarkIntersectHot measures the traversal inner loop on a warm tree.
func BenchmarkIntersectHot(b *testing.B) {
	tree, _ := allocTestTree(b, AlgoNodeLevel, 10000)
	r := rand.New(rand.NewSource(31))
	rays := make([]vecmath.Ray, 256)
	for i := range rays {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, -5)
		target := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		rays[i] = vecmath.Towards(origin, target)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ray := rays[i%len(rays)]
		tree.Intersect(ray, 1e-9, math.Inf(1))
	}
}
