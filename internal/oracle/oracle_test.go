package oracle

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"kdtune/internal/kdtree"
	"kdtune/internal/sah"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// testOptions picks ray budgets: full defaults in normal runs, reduced in
// short mode so `go test -short ./...` stays fast.
func testOptions() Options {
	if testing.Short() {
		return Options{CameraRays: 48, RandomRays: 48}
	}
	return Options{}
}

// testScenes selects the evaluation scenes to run the full battery on.
func testScenes() []*scene.Scene {
	if testing.Short() {
		return []*scene.Scene{scene.WoodDoll(), scene.Toasters()}
	}
	return scene.All()
}

// TestSceneOracle is the tentpole acceptance check: every paper builder at
// workers {1, 2, N} against brute force on every evaluation scene, plus
// worker invariance, pairwise builder agreement, structural replay and
// query cross-checks. See CheckScene.
func TestSceneOracle(t *testing.T) {
	for _, sc := range testScenes() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			so := SceneOptions{Options: testOptions(), Extras: true}
			if testing.Short() {
				so.QueryBoxes, so.QueryPoints = 12, 24
			}
			rep, err := CheckScene(sc, so)
			if err != nil {
				t.Fatal(err)
			}
			if rep.HitRays == 0 {
				t.Fatalf("oracle ray set never hits %s (%d rays) — the check is vacuous", sc.Name, rep.Rays)
			}
			t.Logf("%s: %d trees validated against %d rays (%d hitting)", sc.Name, rep.Trees, rep.Rays, rep.HitRays)
		})
	}
}

// TestSceneOracleDynamicFrame re-runs a reduced battery on a mid-animation
// frame of a dynamic scene, so the oracle also covers deformed geometry.
func TestSceneOracleDynamicFrame(t *testing.T) {
	sc := scene.Toasters()
	if !sc.IsDynamic() {
		t.Fatalf("expected %s to be dynamic", sc.Name)
	}
	so := SceneOptions{
		Options:      Options{CameraRays: 64, RandomRays: 64},
		Frame:        sc.Frames / 2,
		WorkerCounts: []int{1, 3},
	}
	if _, err := CheckScene(sc, so); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationInvariance(t *testing.T) {
	sc := scene.WoodDoll()
	tris := sc.Triangles(0)
	o := testOptions()
	rays := SceneRays(sc, 0, BoundsOf(tris), o)
	for _, algo := range []kdtree.Algorithm{kdtree.AlgoInPlace, kdtree.AlgoLazy} {
		cfg := kdtree.BaseConfig(algo)
		if err := CheckPermutationInvariance(tris, cfg, rays, o); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
}

func TestTransformInvariance(t *testing.T) {
	sc := scene.WoodDoll()
	tris := sc.Triangles(0)
	o := testOptions()
	rays := SceneRays(sc, 0, BoundsOf(tris), o)

	rot := vecmath.RotateAround(vecmath.AxisY, 0.7, vecmath.V(1, 2, 3))
	move := vecmath.Translate(vecmath.V(-40, 13, 8)).MulMat(rot)
	cfg := kdtree.BaseConfig(kdtree.AlgoNested)
	if err := CheckTransformInvariance(tris, cfg, rays, move, 1, o); err != nil {
		t.Fatal(err)
	}

	scaled := vecmath.ScaleUniform(2.5).MulMat(move)
	if err := CheckTransformInvariance(tris, cfg, rays, scaled, 2.5, o); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerInvarianceDirect exercises the standalone bitwise check across
// worker counts not covered by the scene battery, including the extension
// builders and the clipping configuration.
func TestWorkerInvarianceDirect(t *testing.T) {
	tris := scene.WoodDoll().Triangles(0)
	algos := append([]kdtree.Algorithm{}, kdtree.Algorithms...)
	algos = append(algos, kdtree.AlgoMedian)
	for _, algo := range algos {
		cfg := kdtree.BaseConfig(algo)
		if err := CheckWorkerInvariance(tris, cfg, []int{1, 3, 7}); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
	cfg := kdtree.BaseConfig(kdtree.AlgoInPlace)
	cfg.UseClipping = true
	if err := CheckWorkerInvariance(tris, cfg, []int{1, 5}); err != nil {
		t.Errorf("clipping: %v", err)
	}
}

// TestStructuralClipping runs the exact-coverage replay against trees built
// with Wald–Havran perfect-split clipping, which narrows straddler bounds
// differently from plain box intersection.
func TestStructuralClipping(t *testing.T) {
	tris := scene.WoodDoll().Triangles(0)
	for _, algo := range []kdtree.Algorithm{kdtree.AlgoNodeLevel, kdtree.AlgoNested, kdtree.AlgoInPlace} {
		cfg := kdtree.BaseConfig(algo)
		cfg.UseClipping = true
		tree := kdtree.Build(tris, cfg)
		params := sah.Params{CT: sah.FixedCT, CI: cfg.CI, CB: cfg.CB}
		if err := CheckStructure(tree, params); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
}

// TestRayOracleCatchesGeometryDrift is the negative control: a tree built
// over perturbed geometry must fail the ray oracle against the unperturbed
// reference.
func TestRayOracleCatchesGeometryDrift(t *testing.T) {
	sc := scene.WoodDoll()
	tris := sc.Triangles(0)
	o := Options{CameraRays: 128, RandomRays: 128}
	rays := SceneRays(sc, 0, BoundsOf(tris), o)
	ref := NewReference(tris, rays, 1e-9, math.Inf(1), o)

	shift := vecmath.Translate(BoundsOf(tris).Diagonal().Scale(0.25))
	moved := make([]vecmath.Triangle, len(tris))
	for i, tr := range tris {
		moved[i] = tr.Transform(shift)
	}
	tree := kdtree.Build(moved, kdtree.BaseConfig(kdtree.AlgoInPlace))
	if err := ref.CheckTree(tree, "perturbed"); err == nil {
		t.Fatal("ray oracle accepted a tree built over shifted geometry")
	}
}

// TestStructuralOracleCatchesTampering is the structural negative control:
// deserializing a tree whose leaf references were swapped at the byte level
// must fail CheckStructure.
func TestStructuralOracleCatchesTampering(t *testing.T) {
	tris := scene.WoodDoll().Triangles(0)
	tree := kdtree.Build(tris, kdtree.BaseConfig(kdtree.AlgoNested))
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Walk the serialized layout (see kdtree/serialize.go) to the leaf
	// triangle array and rewrite its entries, leaving structure intact.
	off := 4 + 4 // magic + version
	numTris := binary.LittleEndian.Uint64(raw[off:])
	off += 8 + int(numTris)*9*8 // vertices
	off += 6 * 8                // bounds
	numNodes := binary.LittleEndian.Uint64(raw[off:])
	off += 8 + int(numNodes)*(1+1+8+4+4+4+4)
	numLeafTris := binary.LittleEndian.Uint64(raw[off:])
	off += 8
	if numLeafTris < 2 {
		t.Fatal("tree too small to tamper with")
	}
	// Point every leaf reference at triangle 0: tree shape and counts stay
	// valid, contents are wrong.
	for i := 0; i < int(numLeafTris); i++ {
		binary.LittleEndian.PutUint32(raw[off+4*i:], 0)
	}

	bad, err := kdtree.ReadTree(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("tampered bytes should still deserialize (structure is intact): %v", err)
	}
	params := sah.Params{CT: sah.FixedCT, CI: 17, CB: 10}
	if err := CheckStructure(bad, params); err == nil {
		t.Fatal("structural oracle accepted a tree with rewritten leaf contents")
	}
}

// TestReferenceStable sanity-checks the stability classifier on a scene
// with exactly coincident duplicate surfaces.
func TestReferenceStable(t *testing.T) {
	quad := []vecmath.Triangle{
		vecmath.Tri(vecmath.V(-1, -1, 5), vecmath.V(1, -1, 5), vecmath.V(0, 1, 5)),
	}
	dup := append(append([]vecmath.Triangle{}, quad...), quad...)
	ray := vecmath.NewRay(vecmath.V(0, 0, 0), vecmath.V(0, 0, 1))
	miss := vecmath.NewRay(vecmath.V(0, 0, 0), vecmath.V(0, 0, -1))

	ref := NewReference(dup, []vecmath.Ray{ray, miss}, 1e-9, math.Inf(1), Options{})
	if ref.HitCount() != 1 {
		t.Fatalf("HitCount = %d, want 1", ref.HitCount())
	}
	if !ref.Stable(0) {
		// Exactly coincident duplicates share one t, so there is no second
		// distinct surface: the hit is stable.
		t.Error("coincident duplicate surface misclassified as unstable")
	}
	if !ref.Stable(1) {
		t.Error("clean miss must be stable")
	}

	// A second surface makes the hit unstable when it is distinct (farther
	// than epsilon) but within the 10x-epsilon guard band: here tol is
	// 5e-9, so a surface 1e-8 behind the hit lands in the unstable zone.
	near := vecmath.Tri(
		vecmath.V(-1, -1, 5+1e-8), vecmath.V(1, -1, 5+1e-8), vecmath.V(0, 1, 5+1e-8))
	ref2 := NewReference(append(quad, near), []vecmath.Ray{ray}, 1e-9, math.Inf(1), Options{})
	if ref2.Stable(0) {
		t.Error("near-coincident second surface misclassified as stable")
	}
}

// TestCameraRayBudget verifies SceneRays honors the configured budgets.
func TestCameraRayBudget(t *testing.T) {
	sc := scene.WoodDoll()
	o := Options{CameraRays: 37, RandomRays: 11}
	rays := SceneRays(sc, 0, BoundsOf(sc.Triangles(0)), o)
	if len(rays) != 37+11 {
		t.Fatalf("SceneRays produced %d rays, want %d", len(rays), 37+11)
	}
}
