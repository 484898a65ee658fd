package harness

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kdtune/internal/autotune"
	"kdtune/internal/kdtree"
	"kdtune/internal/render"
)

// TestFramesDeterministicAcrossWorkersForRandomVectors is the frame-level
// half of the PR 8 determinism property: for any fixed tunable vector —
// including the render-side packet width and tile size — the rendered
// pixels must be bitwise identical for every worker count. The build-side
// half (tree identity) lives in internal/kdtree.
func TestFramesDeterministicAcrossWorkersForRandomVectors(t *testing.T) {
	r := rand.New(rand.NewSource(811))
	sc := tinyScene()
	tris := sc.Triangles(0)
	vectors := 3
	if testing.Short() {
		vectors = 1
	}
	for i := 0; i < vectors; i++ {
		vars := TunedVars{
			CI: 3 + r.Intn(99), CB: r.Intn(61), S: 1 + r.Intn(8), R: 16 << r.Intn(10),
			Bins: 8 << r.Intn(5), ScatterGrain: 256 << r.Intn(9),
			BinGrain: 512 << r.Intn(7), SplitBias: r.Intn(4),
			PacketWidth: 1 << r.Intn(5), TileSize: 8 << r.Intn(4),
		}
		rc := RunConfig{Scene: sc, Algorithm: kdtree.AlgoInPlace, Workers: 1}

		cfg := vars.buildConfig(rc)
		tree := kdtree.Build(tris, cfg)
		want, _ := render.Render(tree, sc.View, sc.Lights, render.Options{
			Width: 48, Height: 36, Workers: 1,
			PacketWidth: vars.PacketWidth, TileSize: vars.TileSize,
		})
		for _, w := range []int{2, 3 + r.Intn(6)} {
			cfgW := cfg
			cfgW.Workers = w
			treeW := kdtree.Build(tris, cfgW)
			got, _ := render.Render(treeW, sc.View, sc.Lights, render.Options{
				Width: 48, Height: 36, Workers: w,
				PacketWidth: vars.PacketWidth, TileSize: vars.TileSize,
			})
			if !slices.Equal(want.Pix, got.Pix) {
				t.Fatalf("vector %+v workers=%d: frame differs from workers=1", vars, w)
			}
		}
	}
}

// TestRunReportsFullNamedVector pins the report shape the registry refactor
// exists for: a finished run names every registered dimension, carries a
// complete name-keyed tuned vector, and records the full vector per frame.
func TestRunReportsFullNamedVector(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoInPlace,
		Search: SearchNelderMead, Workers: 2,
		Width: 24, Height: 18, MaxIterations: 6, Seed: 5,
	})
	wantNames := []string{"CI", "CB", "S", "B", "G", "GB", "SB", "P", "T"}
	if !slices.Equal(res.ParamNames, wantNames) {
		t.Fatalf("ParamNames = %v, want %v (in-place: no R)", res.ParamNames, wantNames)
	}
	for _, name := range wantNames {
		if _, ok := res.TunedParams[name]; !ok {
			t.Errorf("TunedParams missing %q: %v", name, res.TunedParams)
		}
	}
	for _, f := range res.Frames {
		if len(f.Params) != len(res.ParamNames) {
			t.Fatalf("frame %d records %d params, want %d", f.Iteration, len(f.Params), len(res.ParamNames))
		}
	}
}

// TestRunLazyRegistersR: the lazy builder's suspend threshold R joins the
// tree registry, and it must sit between S and B so the exhaustive walk's
// positional strides keep their documented (CI, CB, S, R) meaning.
func TestRunLazyRegistersR(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoLazy,
		Search: SearchFixed, Workers: 2,
		Width: 24, Height: 18, MaxIterations: 2,
	})
	wantNames := []string{"CI", "CB", "S", "R", "B", "G", "GB", "SB", "P", "T"}
	if !slices.Equal(res.ParamNames, wantNames) {
		t.Fatalf("ParamNames = %v, want %v", res.ParamNames, wantNames)
	}
	if _, ok := res.TunedParams["R"]; !ok {
		t.Errorf("lazy run's TunedParams missing R: %v", res.TunedParams)
	}
}

// TestTunedVectorRemeasuresAsTuned: re-measuring a finished Nelder–Mead run
// through WithParams runs exactly the tuned vector. The fixed frame builds
// with the tuned B/G/GB/SB and renders with the tuned packet width and tile
// size, where a re-measure assembled from the tree parameters alone would
// render scalar at P = 1. Seed 28's four seeding probes all draw P > 1 and
// T != 16, so whichever the clock picks as best differs from the base render.
func TestTunedVectorRemeasuresAsTuned(t *testing.T) {
	rc := RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoInPlace,
		Search: SearchNelderMead, Workers: 2,
		Width: 24, Height: 18, MaxIterations: 4, Seed: 28,
	}
	res := Run(rc)
	if p, tile := res.TunedParams["P"], res.TunedParams["T"]; p == 1 || tile == 16 {
		t.Fatalf("tuned P=%d T=%d: the seed no longer avoids the base render", p, tile)
	}
	fixed, err := rc.WithParams(res.TunedParams)
	if err != nil {
		t.Fatal(err)
	}
	fixed.Search = SearchFixed
	fixed.MaxIterations = 1
	again := Run(fixed)

	want := make([]int, len(res.ParamNames))
	for i, name := range res.ParamNames {
		want[i] = res.TunedParams[name]
	}
	if got := again.Frames[0].Params; !slices.Equal(got, want) {
		t.Fatalf("re-measured frame ran %v, want the tuned vector %v (%v)", got, want, res.ParamNames)
	}
	if again.Packets == 0 {
		t.Fatal("re-measured frame traced no packets: it rendered scalar, not at the tuned width")
	}
}

// TestLazyRegistrySessionHistoryPinned pins the search itself: a seeded
// StopWithCost session over the full lazy-builder registry must propose the
// same vectors in the same order, so reshaping how vectors are registered,
// reported or re-applied cannot move the search. A new digest means the
// proposals changed, which is a change to the search, not to its plumbing.
func TestLazyRegistrySessionHistoryPinned(t *testing.T) {
	want := map[int64]string{
		1: "7809906f8b59ea9e", 2: "6a0e240d1aa10a7a", 3: "b666690604f84faf",
		4: "952c8e6cdc88dec5", 5: "831a39166005b9a9",
	}
	for seed := int64(1); seed <= 5; seed++ {
		var v TunedVars
		reg, err := ComposeRegistry(kdtree.AlgoLazy, &v)
		if err != nil {
			t.Fatal(err)
		}
		tn := autotune.New(autotune.Options{Seed: seed})
		if err := tn.RegisterAll(reg); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			tn.Start()
			ci, cb := float64(v.CI-40)/40, float64(v.CB-12)/12
			tn.StopWithCost(1 + ci*ci + cb*cb + float64((v.S-4)*(v.S-4)) +
				float64(v.Bins)/64 + float64(v.PacketWidth)/8 + float64(v.TileSize)/32 +
				float64(v.ScatterGrain)/4096 + float64(v.BinGrain)/8192 +
				float64(v.SplitBias) + float64(v.R)/1024)
		}
		h := sha256.New()
		for _, s := range tn.History() {
			fmt.Fprintf(h, "%v %v %v\n", s.Values, s.Cost, s.Censored)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[seed] {
			t.Errorf("seed %d: history digest %s, want %s", seed, got, want[seed])
		}
	}
}
