package kdtune

import (
	"bytes"
	"kdtune/internal/bvh"
	"math"
	"testing"
)

// TestFacadeEndToEnd drives the whole public surface: scene, build, query,
// render, tune.
func TestFacadeEndToEnd(t *testing.T) {
	sc, err := SceneByName("WoodDoll")
	if err != nil {
		t.Fatal(err)
	}
	if len(SceneNames()) != 6 {
		t.Fatal("expected six scenes")
	}

	cfg := BaseConfig(AlgoLazy)
	cfg.Workers = 4
	tree := Build(sc.Triangles(0), cfg)
	if tree.Stats().NumTris != sc.NumTriangles() {
		t.Fatal("tree lost triangles")
	}

	ray := NewRay(sc.View.Eye, sc.View.LookAt.Sub(sc.View.Eye))
	if _, ok := IntersectClosest(tree, ray); !ok {
		t.Fatal("camera axis ray missed the scene")
	}

	im, stats := Render(tree, sc.View, sc.Lights, RenderOptions{Width: 32, Height: 24})
	if im.W != 32 || stats.PrimaryRays != 32*24 {
		t.Fatal("render wrong size")
	}
}

func TestFacadeTunerWorkflow(t *testing.T) {
	tuner := NewTuner(TunerOptions{Seed: 9})
	n := 0
	reg := NewTunableRegistry()
	if err := reg.Register(Tunable{Name: "N", Target: &n, Min: 1, Max: 32, Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tuner.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120 && !tuner.Converged(); i++ {
		tuner.Start()
		d := float64(n - 12)
		tuner.StopWithCost(10 + d*d)
	}
	best, _, ok := tuner.Best()
	if !ok || math.Abs(float64(best[0]-12)) > 4 {
		t.Fatalf("facade tuner found %v, want near 12", best)
	}
}

func TestFacadeCustomScene(t *testing.T) {
	tris := []Triangle{
		Tri(V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)),
		Tri(V(2, 0, 0), V(3, 0, 0), V(2, 1, 0)),
	}
	sc := NewStaticScene("custom", tris, View{
		Eye: V(0.3, 0.3, -2), LookAt: V(0.3, 0.3, 0), Up: V(0, 1, 0), FOV: 40,
	}, []Vec3{V(0, 5, -3)})

	res := RunExperiment(RunConfig{
		Scene: sc, Algorithm: AlgoNodeLevel, Search: SearchFixed,
		Width: 16, Height: 12, MaxIterations: 3,
	})
	if len(res.Frames) != 3 {
		t.Fatalf("experiment recorded %d frames", len(res.Frames))
	}
}

func TestFacadeAlgorithmsComplete(t *testing.T) {
	if len(Algorithms) != 4 {
		t.Fatal("expected 4 algorithms")
	}
	want := []Algorithm{AlgoNodeLevel, AlgoNested, AlgoInPlace, AlgoLazy}
	for i, a := range want {
		if Algorithms[i] != a {
			t.Fatalf("algorithm order changed at %d", i)
		}
	}
}

func TestFacadeSerializeRoundTrip(t *testing.T) {
	tris := []Triangle{
		Tri(V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)),
		Tri(V(2, 0, 0), V(3, 0, 0), V(2, 1, 0)),
	}
	tree := Build(tris, BaseConfig(AlgoNodeLevel))
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ray := NewRay(V(0.2, 0.2, -1), V(0, 0, 1))
	h1, ok1 := IntersectClosest(tree, ray)
	h2, ok2 := IntersectClosest(back, ray)
	if ok1 != ok2 || h1.T != h2.T {
		t.Fatal("round-tripped tree answers differently")
	}
}

func TestFacadeQueries(t *testing.T) {
	tris := []Triangle{
		Tri(V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)),
		Tri(V(5, 0, 0), V(6, 0, 0), V(5, 1, 0)),
	}
	tree := Build(tris, BaseConfig(AlgoMedian))
	got := RangeQuery(tree, AABB{Min: V(-1, -1, -1), Max: V(2, 2, 2)})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("RangeQuery = %v", got)
	}
	tri, dist, ok := NearestNeighbor(tree, V(5.2, 0.2, 3))
	if !ok || tri != 1 || dist > 3.01 {
		t.Fatalf("NearestNeighbor = %d %v %v", tri, dist, ok)
	}
}

// TestDifferentialKDTreeVsBVH cross-validates every kD-tree builder against
// the independent BVH implementation on a real scene — the test that
// originally caught two traversal boundary bugs (hits exactly on split
// planes, rays lying in split planes).
func TestDifferentialKDTreeVsBVH(t *testing.T) {
	sc, err := SceneByName("WoodDoll")
	if err != nil {
		t.Fatal(err)
	}
	tris := sc.Triangles(0)
	bv := bvh.Build(tris, bvh.Config{Workers: 2})
	for _, algo := range []Algorithm{AlgoNodeLevel, AlgoNested, AlgoInPlace, AlgoLazy, AlgoMedian} {
		cfg := BaseConfig(algo)
		cfg.Workers = 2
		cfg.R = 128
		kd := Build(tris, cfg)
		for i := 0; i < 4000; i++ {
			h := uint64(i)
			h = h*0x9E3779B97F4A7C15 + 1
			f := func() float64 { h ^= h >> 29; h *= 0xBF58476D1CE4E5B9; return float64(h%2000)/1000 - 1 }
			// Include axis-aligned directions: the historic failure mode.
			var r Ray
			switch i % 4 {
			case 0:
				r = NewRay(V(-4, 1.0+f(), f()), V(1, 0, 0))
			case 1:
				r = NewRay(V(f(), 4, f()), V(0, -1, 0))
			default:
				r = NewRay(V(-4, 1+f(), f()), V(1, f()*0.4, f()*0.4))
			}
			hk, okK := kd.Intersect(r, 1e-9, math.Inf(1))
			hb, okB := bv.Intersect(r, 1e-9, math.Inf(1))
			if okK != okB || (okK && math.Abs(hk.T-hb.T) > 1e-9*(1+hk.T)) {
				t.Fatalf("%v: ray %d: kd %v/%v, bvh %v/%v", algo, i, hk.T, okK, hb.T, okB)
			}
		}
	}
}
