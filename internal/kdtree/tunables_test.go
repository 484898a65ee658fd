package kdtree

import (
	"fmt"
	"math/rand"
	"testing"

	"kdtune/internal/autotune"
)

// randomBuildVector draws one random build-side tunable vector. The
// scheduling dimensions (Bins, ScatterGrain, BinGrain, SplitBias) are drawn
// from the exact value sets the registry would search — Tunable.Values() —
// so the property test sweeps precisely the space the tuner can reach.
func randomBuildVector(t *testing.T, r *rand.Rand, cfg *Config) {
	t.Helper()
	reg := autotune.NewRegistry()
	if err := RegisterBuildTunables(reg, &cfg.Bins, &cfg.ScatterGrain, &cfg.BinGrain, &cfg.SplitBias); err != nil {
		t.Fatal(err)
	}
	for _, tn := range reg.Tunables() {
		vals, err := tn.Values()
		if err != nil {
			t.Fatal(err)
		}
		*tn.Target = vals[r.Intn(len(vals))]
	}
	cfg.CI = float64(3 + r.Intn(99))
	cfg.CB = float64(r.Intn(61))
	cfg.S = 1 + r.Intn(8)
	cfg.R = 16 << r.Intn(10) // [16, 8192], lazy only
}

// TestRandomVectorsDeterministicAcrossWorkers is the determinism property
// of the tunable vector: for ANY fixed vector — cost params, bin count, both
// grains, split bias — every worker count must emit the identical tree, and
// the identical serialized bytes, leaf layout included. Grains and bias may
// only reshape the schedule; Bins legitimately changes the tree, but
// identically for every worker count.
func TestRandomVectorsDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(801))
	vectors := 4
	if testing.Short() {
		vectors = 2
	}
	tris := randomTriangles(r, 2500, 10, 0.25)
	for v := 0; v < vectors; v++ {
		cfg := Config{}
		randomBuildVector(t, r, &cfg)
		for _, a := range Algorithms {
			c := cfg
			c.Algorithm = a
			ref := c
			ref.Workers = 1
			want := Build(tris, ref)
			wantDigest := treeDigest(t, want)
			for _, w := range []int{2, 3 + r.Intn(8)} {
				cw := c
				cw.Workers = w
				got := Build(tris, cw)
				err := sameTree(want, got)
				if err == nil {
					if d := treeDigest(t, got); d != wantDigest {
						err = fmt.Errorf("serialized digest %s, workers=1 %s", d, wantDigest)
					}
				}
				if err != nil {
					t.Fatalf("%v workers=%d vector {CI=%v CB=%v S=%d R=%d B=%d G=%d GB=%d SB=%d}: %v",
						a, w, c.CI, c.CB, c.S, c.R, c.Bins, c.ScatterGrain, c.BinGrain, c.SplitBias, err)
				}
			}
		}
	}
}

// TestBinsChangesTree guards against the bin count silently not being
// threaded: an 8-bin and a 128-bin search over irregular geometry must pick
// different planes somewhere. (If this ever starts failing spuriously the
// scene is too regular — make it lumpier, don't widen the assertion.)
func TestBinsChangesTree(t *testing.T) {
	r := rand.New(rand.NewSource(802))
	tris := randomTriangles(r, 3000, 10, 0.4)
	coarse := testConfig(AlgoInPlace)
	coarse.Bins = 8
	fine := testConfig(AlgoInPlace)
	fine.Bins = 128
	if err := sameTree(Build(tris, coarse), Build(tris, fine)); err == nil {
		t.Fatal("8-bin and 128-bin builds produced identical trees; Bins is not reaching the split search")
	}
}

// TestGrainVectorSwitchSteadyStateAllocs pins the pooled-arena budget across
// a tuner step that changes the scheduling vector: warm the Builder under
// vector A, switch to a vector with different Bins/grains/bias, allow ONE
// adaptation build for the pools to re-size, and require the same ≤32-alloc
// steady state as the fixed-config test. A grain or bin change must cost one
// transition, not a permanent leak.
func TestGrainVectorSwitchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	if buildChecks {
		t.Skip("the parallelcheck invariant layer allocates per dispatch; counts are meaningless under -tags parallelcheck")
	}
	const budget = 32.0
	r := rand.New(rand.NewSource(803))
	tris := randomTriangles(r, 4000, 10, 0.2)
	for _, algo := range Algorithms {
		a := BaseConfig(algo)
		a.Workers = 1
		a.S = 1
		a.Bins = 32

		b := a
		b.Bins = 64
		b.ScatterGrain = 1024
		b.BinGrain = 8192
		b.SplitBias = 2

		bd := NewBuilder()
		bd.Build(tris, a)
		bd.Build(tris, a) // steady under A...
		bd.Build(tris, b) // ...one adaptation build under B
		avg := testing.AllocsPerRun(5, func() {
			bd.Build(tris, b)
		})
		if avg > budget {
			t.Errorf("%v: steady-state rebuild after a vector switch allocates %.1f objects, budget %.0f", algo, avg, budget)
		}
	}
}
