package oracle

import (
	"bytes"
	"errors"
	"testing"

	"kdtune/internal/kdtree"
)

// TestFallbackTreeOracle validates the exact tree the guarded frame loop
// renders after an abort: a median-split build on a Builder whose previous
// guarded build was stopped mid-flight. The fallback tree must agree with
// brute force on real scene geometry and be bitwise-identical to a median
// build on a fresh Builder — an abort may not leave arena residue that
// changes what the fallback produces.
func TestFallbackTreeOracle(t *testing.T) {
	for _, sc := range testScenes() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			tris := sc.Triangles(0)
			o := Options{CameraRays: 64, RandomRays: 64}
			rays := SceneRays(sc, 0, BoundsOf(tris), o)
			tMin, tMax := defaultInterval()
			ref := NewReference(tris, rays, tMin, tMax, o)

			for _, algo := range kdtree.Algorithms {
				cfg := kdtree.BaseConfig(algo)
				cfg.Workers = 4
				b := kdtree.NewBuilder()
				// Stop the primary build mid-flight, exactly like a limit
				// trip in the harness would. A one-byte arena ceiling trips
				// at the first node check after the build holds any items,
				// whatever the scheduling; a 1 ns deadline raced its timer
				// against mostly-deferred lazy builds.
				_, err := b.BuildGuarded(tris, cfg, kdtree.Guard{MaxArenaBytes: 1})
				var ab *kdtree.BuildAborted
				if !errors.As(err, &ab) || ab.Cause != kdtree.AbortMemory {
					t.Fatalf("%v: one-byte arena ceiling did not abort the build: %v", algo, err)
				}

				fcfg := cfg
				fcfg.Algorithm = kdtree.AlgoMedian
				fallback, err := b.BuildGuarded(tris, fcfg, kdtree.Guard{})
				if err != nil {
					t.Fatalf("%v: fallback build aborted: %v", algo, err)
				}
				label := "median-fallback-after-" + algo.String()
				if err := ref.CheckTree(fallback, label); err != nil {
					t.Fatal(err)
				}
				var got, want bytes.Buffer
				if err := fallback.Serialize(&got); err != nil {
					t.Fatal(err)
				}
				if err := kdtree.NewBuilder().Build(tris, fcfg).Serialize(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: fallback tree differs from a fresh median build", label)
				}
			}
		})
	}
}
