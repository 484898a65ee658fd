package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"kdtune/internal/vecmath"
)

// randomTriangles scatters n small triangles in the unit-ish cube.
func randomTriangles(r *rand.Rand, n int, extent, size float64) []vecmath.Triangle {
	tris := make([]vecmath.Triangle, n)
	for i := range tris {
		c := vecmath.V(r.Float64()*extent, r.Float64()*extent, r.Float64()*extent)
		tris[i] = vecmath.Tri(
			c.Add(vecmath.V(r.NormFloat64()*size, r.NormFloat64()*size, r.NormFloat64()*size)),
			c.Add(vecmath.V(r.NormFloat64()*size, r.NormFloat64()*size, r.NormFloat64()*size)),
			c.Add(vecmath.V(r.NormFloat64()*size, r.NormFloat64()*size, r.NormFloat64()*size)),
		)
	}
	return tris
}

// bruteForceClosest is the reference intersector.
func bruteForceClosest(tris []vecmath.Triangle, r vecmath.Ray, tMin, tMax float64) (Hit, bool) {
	best := Hit{T: math.Inf(1)}
	found := false
	for i, tr := range tris {
		if th, u, v, hit := tr.IntersectRay(r, tMin, tMax); hit && th < best.T {
			best = Hit{T: th, Tri: i, U: u, V: v}
			found = true
		}
	}
	return best, found
}

func testConfig(a Algorithm) Config {
	c := BaseConfig(a)
	c.Workers = 4
	c.R = 32 // small threshold so lazy trees actually defer in small tests
	return c
}

func TestBuildEmptyScene(t *testing.T) {
	for _, a := range Algorithms {
		tree := Build(nil, testConfig(a))
		if tree == nil {
			t.Fatalf("%v: nil tree for empty scene", a)
		}
		if _, hit := tree.Intersect(vecmath.NewRay(vecmath.V(0, 0, -5), vecmath.V(0, 0, 1)), 0, 100); hit {
			t.Fatalf("%v: hit in empty scene", a)
		}
		if tree.Occluded(vecmath.NewRay(vecmath.V(0, 0, -5), vecmath.V(0, 0, 1)), 0, 100) {
			t.Fatalf("%v: occlusion in empty scene", a)
		}
	}
}

func TestBuildSingleTriangle(t *testing.T) {
	tris := []vecmath.Triangle{
		vecmath.Tri(vecmath.V(0, 0, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0)),
	}
	for _, a := range Algorithms {
		tree := Build(tris, testConfig(a))
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		hit, ok := tree.Intersect(vecmath.NewRay(vecmath.V(0.2, 0.2, -1), vecmath.V(0, 0, 1)), 0, 10)
		if !ok || hit.Tri != 0 || math.Abs(hit.T-1) > 1e-12 {
			t.Fatalf("%v: hit = %+v ok=%v", a, hit, ok)
		}
		if _, ok := tree.Intersect(vecmath.NewRay(vecmath.V(5, 5, -1), vecmath.V(0, 0, 1)), 0, 10); ok {
			t.Fatalf("%v: phantom hit", a)
		}
	}
}

func TestAllAlgorithmsValidate(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	tris := randomTriangles(r, 3000, 10, 0.15)
	for _, a := range Algorithms {
		tree := Build(tris, testConfig(a))
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		st := tree.Stats()
		if st.NumTris != len(tris) {
			t.Fatalf("%v: stats NumTris = %d", a, st.NumTris)
		}
		if st.NumNodes == 0 || (st.NumLeaves == 0 && st.NumDefer == 0) {
			t.Fatalf("%v: implausible stats %+v", a, st)
		}
		if st.NumInner != 0 && st.NumInner+1 != st.NumLeaves+st.NumDefer {
			t.Fatalf("%v: binary-tree identity violated: %+v", a, st)
		}
	}
}

func TestTraversalMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tris := randomTriangles(r, 800, 10, 0.2)
	rays := make([]vecmath.Ray, 400)
	for i := range rays {
		// Mix of rays from outside aiming in, and rays from inside.
		o := vecmath.V(r.Float64()*20-5, r.Float64()*20-5, r.Float64()*20-5)
		target := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		rays[i] = vecmath.Towards(o, target)
	}
	for _, a := range Algorithms {
		tree := Build(tris, testConfig(a))
		for ri, ray := range rays {
			want, wantHit := bruteForceClosest(tris, ray, 1e-9, math.Inf(1))
			got, gotHit := tree.Intersect(ray, 1e-9, math.Inf(1))
			if wantHit != gotHit {
				t.Fatalf("%v: ray %d hit mismatch: tree=%v brute=%v", a, ri, gotHit, wantHit)
			}
			if !wantHit {
				continue
			}
			if math.Abs(got.T-want.T) > 1e-9*(1+want.T) {
				t.Fatalf("%v: ray %d distance mismatch: tree=%v brute=%v", a, ri, got.T, want.T)
			}
			// Note: got.Tri may differ from want.Tri when two triangles are
			// hit at (numerically) identical distance; the distance check
			// above is the real contract.
		}
	}
}

func TestOccludedMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tris := randomTriangles(r, 500, 8, 0.3)
	for _, a := range Algorithms {
		tree := Build(tris, testConfig(a))
		for i := 0; i < 300; i++ {
			o := vecmath.V(r.Float64()*16-4, r.Float64()*16-4, r.Float64()*16-4)
			p := vecmath.V(r.Float64()*8, r.Float64()*8, r.Float64()*8)
			ray := vecmath.Towards(o, p)
			_, want := bruteForceClosest(tris, ray, 1e-9, 1)
			got := tree.Occluded(ray, 1e-9, 1)
			if want != got {
				t.Fatalf("%v: occlusion mismatch ray %d: tree=%v brute=%v", a, i, got, want)
			}
		}
	}
}

func TestAlgorithmsAgreeWithEachOther(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	tris := randomTriangles(r, 1500, 10, 0.25)
	trees := make([]*Tree, len(Algorithms))
	for i, a := range Algorithms {
		trees[i] = Build(tris, testConfig(a))
	}
	for i := 0; i < 500; i++ {
		o := vecmath.V(-2, r.Float64()*10, r.Float64()*10)
		d := vecmath.V(1, r.NormFloat64()*0.2, r.NormFloat64()*0.2)
		ray := vecmath.NewRay(o, d)
		ref, refHit := trees[0].Intersect(ray, 1e-9, math.Inf(1))
		for ai := 1; ai < len(trees); ai++ {
			got, gotHit := trees[ai].Intersect(ray, 1e-9, math.Inf(1))
			if refHit != gotHit {
				t.Fatalf("ray %d: %v hit=%v but %v hit=%v", i, Algorithms[0], refHit, Algorithms[ai], gotHit)
			}
			if refHit && math.Abs(ref.T-got.T) > 1e-9*(1+ref.T) {
				t.Fatalf("ray %d: %v t=%v but %v t=%v", i, Algorithms[0], ref.T, Algorithms[ai], got.T)
			}
		}
	}
}

func TestLazyDefersAndExpands(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	tris := randomTriangles(r, 4000, 10, 0.1)
	cfg := testConfig(AlgoLazy)
	cfg.R = 256
	tree := Build(tris, cfg)
	if tree.NumDeferred() == 0 {
		t.Fatal("lazy build produced no deferred nodes (R=256 over 4000 tris)")
	}
	if tree.NumExpanded() != 0 {
		t.Fatal("deferred nodes expanded before any ray")
	}
	// One ray expands at most a handful of nodes.
	ray := vecmath.NewRay(vecmath.V(-5, 5, 5), vecmath.V(1, 0.01, 0.01))
	tree.Intersect(ray, 1e-9, math.Inf(1))
	after := tree.NumExpanded()
	if after == 0 {
		t.Fatal("ray through the scene expanded nothing")
	}
	if after == tree.NumDeferred() {
		t.Fatal("single ray expanded every deferred node — laziness is broken")
	}
	tree.ExpandAll()
	if tree.NumExpanded() != tree.NumDeferred() {
		t.Fatal("ExpandAll left suspended nodes")
	}
}

func TestLazyConcurrentExpansion(t *testing.T) {
	// Many goroutines tracing through the same deferred regions: run with
	// -race to check the sync.Once guarding.
	r := rand.New(rand.NewSource(45))
	tris := randomTriangles(r, 3000, 10, 0.15)
	cfg := testConfig(AlgoLazy)
	cfg.R = 128
	tree := Build(tris, cfg)

	rays := make([]vecmath.Ray, 256)
	for i := range rays {
		o := vecmath.V(-2, r.Float64()*10, r.Float64()*10)
		rays[i] = vecmath.NewRay(o, vecmath.V(1, r.NormFloat64()*0.3, r.NormFloat64()*0.3))
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := g; i < len(rays); i += 8 {
				tree.Intersect(rays[i], 1e-9, math.Inf(1))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	// Expanded trees must agree with brute force afterwards.
	for i := 0; i < 64; i++ {
		want, wantHit := bruteForceClosest(tris, rays[i], 1e-9, math.Inf(1))
		got, gotHit := tree.Intersect(rays[i], 1e-9, math.Inf(1))
		if wantHit != gotHit || (wantHit && math.Abs(got.T-want.T) > 1e-9*(1+want.T)) {
			t.Fatalf("post-expansion mismatch on ray %d", i)
		}
	}
}

func TestDegenerateTrianglesDoNotBreakBuild(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	tris := randomTriangles(r, 200, 5, 0.2)
	// Inject degenerates: a point, a line, and a NaN triangle.
	tris = append(tris,
		vecmath.Tri(vecmath.V(1, 1, 1), vecmath.V(1, 1, 1), vecmath.V(1, 1, 1)),
		vecmath.Tri(vecmath.V(0, 0, 0), vecmath.V(1, 1, 1), vecmath.V(2, 2, 2)),
		vecmath.Tri(vecmath.V(math.NaN(), 0, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0)),
	)
	for _, a := range Algorithms {
		tree := Build(tris, testConfig(a))
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		// Rays still resolve against the healthy geometry.
		for i := 0; i < 50; i++ {
			o := vecmath.V(r.Float64()*10-2.5, r.Float64()*10-2.5, -3)
			ray := vecmath.NewRay(o, vecmath.V(0, 0, 1))
			want, wantHit := bruteForceClosest(tris, ray, 1e-9, math.Inf(1))
			got, gotHit := tree.Intersect(ray, 1e-9, math.Inf(1))
			if wantHit != gotHit || (wantHit && math.Abs(got.T-want.T) > 1e-9) {
				t.Fatalf("%v: degenerate-scene mismatch", a)
			}
		}
	}
}

func TestCoplanarGeometry(t *testing.T) {
	// A grid of triangles all in the z=0 plane: SAH on Z sees zero-extent;
	// builders must terminate and still answer queries.
	var tris []vecmath.Triangle
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			x, y := float64(i), float64(j)
			tris = append(tris,
				vecmath.Tri(vecmath.V(x, y, 0), vecmath.V(x+1, y, 0), vecmath.V(x, y+1, 0)),
				vecmath.Tri(vecmath.V(x+1, y, 0), vecmath.V(x+1, y+1, 0), vecmath.V(x, y+1, 0)),
			)
		}
	}
	for _, a := range Algorithms {
		tree := Build(tris, testConfig(a))
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		hit, ok := tree.Intersect(vecmath.NewRay(vecmath.V(5.1, 5.1, -2), vecmath.V(0, 0, 1)), 0, 10)
		if !ok || math.Abs(hit.T-2) > 1e-12 {
			t.Fatalf("%v: coplanar grid hit = %+v ok=%v", a, hit, ok)
		}
	}
}

func TestWorkerCountsProduceSameResults(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	tris := randomTriangles(r, 1000, 10, 0.2)
	ray := vecmath.NewRay(vecmath.V(-3, 5, 5), vecmath.V(1, 0.05, -0.03))
	want, wantHit := bruteForceClosest(tris, ray, 1e-9, math.Inf(1))
	for _, a := range Algorithms {
		for _, workers := range []int{1, 2, 8, 32} {
			cfg := testConfig(a)
			cfg.Workers = workers
			tree := Build(tris, cfg)
			got, gotHit := tree.Intersect(ray, 1e-9, math.Inf(1))
			if gotHit != wantHit || (wantHit && math.Abs(got.T-want.T) > 1e-9) {
				t.Fatalf("%v workers=%d: mismatch", a, workers)
			}
		}
	}
}

func TestUseClippingStillCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	// Large triangles make clipping actually matter.
	tris := randomTriangles(r, 400, 10, 1.5)
	for _, a := range Algorithms {
		cfg := testConfig(a)
		cfg.UseClipping = true
		tree := Build(tris, cfg)
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v clipped: %v", a, err)
		}
		for i := 0; i < 200; i++ {
			o := vecmath.V(r.Float64()*24-7, r.Float64()*24-7, -5)
			ray := vecmath.NewRay(o, vecmath.V(r.NormFloat64()*0.1, r.NormFloat64()*0.1, 1))
			want, wantHit := bruteForceClosest(tris, ray, 1e-9, math.Inf(1))
			got, gotHit := tree.Intersect(ray, 1e-9, math.Inf(1))
			if wantHit != gotHit || (wantHit && math.Abs(got.T-want.T) > 1e-9*(1+want.T)) {
				t.Fatalf("%v clipped: ray %d mismatch", a, i)
			}
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized(1000)
	if c.Workers < 1 || c.CI <= 0 || c.S < 1 || c.R < 1 || c.MaxDepth <= 0 {
		t.Fatalf("normalized config has bad defaults: %+v", c)
	}
	if d := (Config{S: 1, Workers: 1}).spawnDepth(); d != 0 {
		t.Fatalf("spawnDepth(1,1) = %d, want 0", d)
	}
	if d := (Config{S: 4, Workers: 8}).spawnDepth(); d != 5 {
		t.Fatalf("spawnDepth(4,8) = %d, want 5 (2^5=32)", d)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	names := map[Algorithm]string{
		AlgoNodeLevel: "node-level", AlgoNested: "nested",
		AlgoInPlace: "in-place", AlgoLazy: "lazy",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should still format")
	}
	if AlgoLazy.HasR() != true || AlgoInPlace.HasR() != false {
		t.Error("HasR wrong")
	}
}

func TestBaseConfigMatchesPaper(t *testing.T) {
	c := BaseConfig(AlgoInPlace)
	if c.CI != 17 || c.CB != 10 || c.S != 3 || c.R != 4096 {
		t.Fatalf("C_base = %+v, want (17, 10, 3, 4096)", c)
	}
}

func TestStatsDuplication(t *testing.T) {
	s := BuildStats{NumTris: 100, LeafRefs: 150}
	if s.DuplicationFactor() != 1.5 {
		t.Fatalf("DuplicationFactor = %v", s.DuplicationFactor())
	}
	if (BuildStats{}).DuplicationFactor() != 0 {
		t.Fatal("empty stats duplication should be 0")
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestDeepSceneRespectsMaxDepth(t *testing.T) {
	// Extremely overlapping geometry tempts infinite splitting; MaxDepth
	// and the no-progress guard must hold the line.
	var tris []vecmath.Triangle
	for i := 0; i < 200; i++ {
		f := float64(i) * 1e-4
		tris = append(tris, vecmath.Tri(
			vecmath.V(f, 0, 0), vecmath.V(1+f, 0, 0), vecmath.V(f, 1, 0)))
	}
	for _, a := range Algorithms {
		cfg := testConfig(a)
		cfg.MaxDepth = 10
		tree := Build(tris, cfg)
		tree.ExpandAll()
		if st := tree.Stats(); st.MaxDepth > 10 {
			t.Fatalf("%v: depth %d exceeds cap 10", a, st.MaxDepth)
		}
	}
}
