package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// driveTuner runs the Start/Stop loop against a synthetic cost function of
// the parameter values until convergence or maxIters.
func driveTuner(t *Tuner, cost func(vals []int) float64, maxIters int, targets ...*int) int {
	for i := 0; i < maxIters; i++ {
		t.Start()
		vals := make([]int, len(targets))
		for j, p := range targets {
			vals[j] = *p
		}
		t.StopWithCost(cost(vals))
		if t.Converged() {
			return i + 1
		}
	}
	return maxIters
}

// linear and pow2 describe test tunables on the two grid scales.
func linear(name string, v *int, min, max, step int) Tunable {
	return Tunable{Name: name, Target: v, Min: min, Max: max, Step: step}
}

func pow2(name string, v *int, min, max int) Tunable {
	return Tunable{Name: name, Target: v, Min: min, Max: max, Scale: ScalePow2}
}

// tableII is the paper's four-dimensional search space (CI, CB, S, R).
func tableII(ci, cb, s, r *int) []Tunable {
	return []Tunable{
		linear("CI", ci, 3, 101, 1), linear("CB", cb, 0, 60, 1),
		linear("S", s, 1, 8, 1), pow2("R", r, 16, 8192),
	}
}

// registryOf registers the tunables in order, failing the test on error.
func registryOf(t testing.TB, tns ...Tunable) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, tn := range tns {
		if err := reg.Register(tn); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// newTuner returns a Nelder–Mead tuner over the given tunables.
func newTuner(t testing.TB, opts Options, tns ...Tunable) *Tuner {
	t.Helper()
	tn := New(opts)
	if err := tn.RegisterAll(registryOf(t, tns...)); err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestRegisterValidation(t *testing.T) {
	var v int
	reg := NewRegistry()
	for _, bad := range []Tunable{
		linear("empty-range", &v, 5, 1, 1),
		linear("negative-step", &v, 1, 5, -1),
		linear("nil-target", nil, 1, 5, 1),
		pow2("inverted-pow2", &v, 8192, 16),
	} {
		if err := reg.Register(bad); err == nil {
			t.Fatalf("invalid tunable %q accepted", bad.Name)
		}
	}
	tn := newTuner(t, Options{Seed: 1}, linear("v", &v, 1, 5, 1))
	tn.Start()
	tn.StopWithCost(1)
	if err := tn.RegisterAll(registryOf(t, linear("w", &v, 1, 5, 1))); err == nil {
		t.Fatal("registration after tuning started accepted")
	}
}

func TestPow2Values(t *testing.T) {
	vals, err := pow2Values(16, 8192)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	if len(vals) != len(want) {
		t.Fatalf("pow2Values = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("pow2Values = %v, want %v", vals, want)
		}
	}
}

func TestIntervalValues(t *testing.T) {
	vals, err := intervalValues(3, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 3 || vals[1] != 7 || vals[2] != 11 {
		t.Fatalf("intervalValues = %v", vals)
	}
}

func TestTunerAppliesValuesWithinBounds(t *testing.T) {
	var a, b int
	tn := newTuner(t, Options{Seed: 7}, linear("a", &a, 3, 101, 1), pow2("r", &b, 16, 8192))
	for i := 0; i < 200; i++ {
		tn.Start()
		if a < 3 || a > 101 {
			t.Fatalf("iter %d: a=%d escaped [3,101]", i, a)
		}
		if b < 16 || b > 8192 || b&(b-1) != 0 {
			t.Fatalf("iter %d: b=%d is not a power of two in [16,8192]", i, b)
		}
		tn.StopWithCost(float64(a) + float64(b)/100)
	}
}

func TestConvergesOnConvexQuadratic1D(t *testing.T) {
	var n int
	tn := newTuner(t, Options{Seed: 3}, linear("n", &n, 1, 64, 1))
	cost := func(vals []int) float64 {
		d := float64(vals[0] - 23)
		return 100 + d*d
	}
	iters := driveTuner(tn, cost, 500, &n)
	if !tn.Converged() {
		t.Fatalf("did not converge in %d iterations", iters)
	}
	best, bestCost, ok := tn.Best()
	if !ok {
		t.Fatal("no best")
	}
	if math.Abs(float64(best[0]-23)) > 3 {
		t.Fatalf("best = %v (cost %v), want near 23", best, bestCost)
	}
}

func TestConvergesOnConvexQuadratic4D(t *testing.T) {
	// Dimensionality of the paper's real search space (CI, CB, S, R).
	// Nelder–Mead is vulnerable to local minima (§V-D4 reports outliers
	// with speedup ~1); assert on the median over seeds, not on every run.
	opt := []int{40, 20, 5, 256}
	var costs []float64
	for seed := int64(1); seed <= 5; seed++ {
		var ci, cb, s, r int
		tn := newTuner(t, Options{Seed: seed}, tableII(&ci, &cb, &s, &r)...)
		cost := func(v []int) float64 {
			c := 0.0
			for i, o := range opt {
				d := (float64(v[i]) - float64(o)) / float64(o)
				c += d * d
			}
			return 1 + c
		}
		iters := driveTuner(tn, cost, 2000, &ci, &cb, &s, &r)
		best, bestCost, _ := tn.Best()
		if bestCost > 2.0 {
			t.Fatalf("seed %d: catastrophic optimum %v (cost %v) after %d iters", seed, best, bestCost, iters)
		}
		costs = append(costs, bestCost)
	}
	sort.Float64s(costs)
	if med := costs[len(costs)/2]; med > 1.2 {
		t.Fatalf("median optimum cost %v across seeds, want <= 1.2 (costs %v)", med, costs)
	}
}

func TestConvergenceSpeedIsPaperLike(t *testing.T) {
	// The paper reports a "relatively stable state after just about 40
	// iterations" on the 4-D space. Require convergence within a small
	// multiple of that on a smooth cost surface for most seeds.
	within := 0
	for seed := int64(1); seed <= 10; seed++ {
		var ci, cb, s, r int
		tn := newTuner(t, Options{Seed: seed}, tableII(&ci, &cb, &s, &r)...)
		cost := func(v []int) float64 {
			return math.Abs(float64(v[0])-30)/30 + math.Abs(float64(v[1])-15)/15 +
				math.Abs(float64(v[2])-4)/4 + math.Abs(math.Log2(float64(v[3]))-8)
		}
		iters := driveTuner(tn, cost, 300, &ci, &cb, &s, &r)
		if tn.Converged() && iters <= 120 {
			within++
		}
	}
	if within < 6 {
		t.Fatalf("only %d/10 seeds converged within 120 iterations", within)
	}
}

func TestNoisyMeasurementsStillImprove(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var n int
	tn := newTuner(t, Options{Seed: 17}, linear("n", &n, 1, 100, 1))
	cost := func(vals []int) float64 {
		d := float64(vals[0]-60) / 60
		return (1 + d*d) * (1 + 0.05*rng.NormFloat64())
	}
	driveTuner(tn, cost, 400, &n)
	best, _, _ := tn.Best()
	if math.Abs(float64(best[0]-60)) > 25 {
		t.Fatalf("noisy best = %v, want near 60", best)
	}
}

func TestBestNeverWorseThanFirstSample(t *testing.T) {
	// On any cost surface the tuned result can't be worse than the first
	// configuration measured — the tuner always keeps the incumbent.
	surfaces := []func([]int) float64{
		func(v []int) float64 { return float64(v[0]) },
		func(v []int) float64 { return -float64(v[0]) },
		func(v []int) float64 { return math.Sin(float64(v[0])) * 100 },
		func(v []int) float64 { return float64((v[0] * 7919) % 101) }, // rough
	}
	for si, cost := range surfaces {
		var n int
		tn := newTuner(t, Options{Seed: int64(si + 1)}, linear("n", &n, 1, 100, 1))
		var first float64
		for i := 0; i < 150; i++ {
			tn.Start()
			c := cost([]int{n})
			if i == 0 {
				first = c
			}
			tn.StopWithCost(c)
		}
		_, bestCost, _ := tn.Best()
		if bestCost > first {
			t.Fatalf("surface %d: best %v worse than first sample %v", si, bestCost, first)
		}
	}
}

func TestStartStopDiscipline(t *testing.T) {
	var v int
	tn := newTuner(t, Options{Seed: 1}, linear("v", &v, 1, 4, 1))

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Stop without Start should panic")
			}
		}()
		tn.StopWithCost(1)
	}()

	tn.Start()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Start should panic")
			}
		}()
		tn.Start()
	}()
	tn.StopWithCost(1)

	if tn.Iterations() != 1 {
		t.Fatalf("Iterations = %d", tn.Iterations())
	}
	if len(tn.History()) != 1 {
		t.Fatalf("History length = %d", len(tn.History()))
	}
}

func TestStartWithoutParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{Seed: 1}).Start()
}

func TestWallClockMeasurement(t *testing.T) {
	// Fake clock: each Stop sees 1ms more than its Start.
	now := time.Duration(0)
	tn := New(Options{Seed: 1, Clock: func() time.Duration {
		now += 500 * time.Microsecond
		return now
	}})
	var v int
	if err := tn.RegisterAll(registryOf(t, linear("v", &v, 1, 8, 1))); err != nil {
		t.Fatal(err)
	}
	tn.Start()
	tn.Stop()
	if len(tn.History()) != 1 || tn.History()[0].Cost <= 0 {
		t.Fatalf("wall-clock cost not recorded: %+v", tn.History())
	}
}

func TestApplyBest(t *testing.T) {
	var v int
	tn := newTuner(t, Options{Seed: 5}, linear("v", &v, 1, 50, 1))
	if tn.ApplyBest() {
		t.Fatal("ApplyBest before any measurement should report false")
	}
	driveTuner(tn, func(vals []int) float64 {
		d := float64(vals[0] - 10)
		return d * d
	}, 300, &v)
	best, _, _ := tn.Best()
	if !tn.ApplyBest() {
		t.Fatal("ApplyBest failed")
	}
	if v != best[0] {
		t.Fatalf("ApplyBest wrote %d, Best says %d", v, best[0])
	}
}

func TestRetuneAdaptsToShiftedOptimum(t *testing.T) {
	var n int
	tn := newTuner(t, Options{Seed: 11, RetuneThreshold: 1.5, RetuneWindow: 3}, linear("n", &n, 1, 100, 1))

	optimum := 20
	cost := func(v int) float64 {
		d := float64(v-optimum) / 10
		return 1 + d*d
	}
	// Converge on the first optimum.
	for i := 0; i < 400 && !tn.Converged(); i++ {
		tn.Start()
		tn.StopWithCost(cost(n))
	}
	if !tn.Converged() {
		t.Fatal("phase 1 did not converge")
	}
	// Shift the world: the old best now costs ~17x its old value.
	optimum = 85
	for i := 0; i < 600; i++ {
		tn.Start()
		tn.StopWithCost(cost(n))
	}
	if tn.Restarts() == 0 {
		t.Fatal("drift never triggered a retune")
	}
	best, _, _ := tn.Best()
	if math.Abs(float64(best[0]-85)) > 25 {
		t.Fatalf("after drift best = %v, want near 85", best)
	}
}

func TestExhaustiveVisitsWholeGrid(t *testing.T) {
	var a, b int
	tn, err := NewExhaustiveTuner(Options{Seed: 1},
		registryOf(t, linear("a", &a, 0, 4, 1), linear("b", &b, 0, 2, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for !tn.Converged() {
		tn.Start()
		seen[[2]int{a, b}] = true
		tn.StopWithCost(float64((a-3)*(a-3) + (b-1)*(b-1)))
	}
	if len(seen) != 15 {
		t.Fatalf("visited %d configs, want 15", len(seen))
	}
	best, cost, _ := tn.Best()
	if best[0] != 3 || best[1] != 1 || cost != 0 {
		t.Fatalf("exhaustive best = %v cost %v, want [3 1] 0", best, cost)
	}
}

func TestExhaustiveStrides(t *testing.T) {
	var a int
	params := []*Param{{name: "a", target: &a, values: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}}
	e := NewExhaustive(params, []int{3})
	if e.GridSize() != 4 {
		t.Fatalf("GridSize = %d, want 4 (indices 0,3,6,9)", e.GridSize())
	}
	visited := []int{}
	for !e.Converged() {
		cfg := e.Next()
		visited = append(visited, cfg[0])
		e.Report(cfg, float64(cfg[0]))
	}
	if len(visited) != 4 || visited[0] != 0 || visited[3] != 9 {
		t.Fatalf("visited = %v", visited)
	}
	if e.Evaluations() != 4 {
		t.Fatalf("Evaluations = %d", e.Evaluations())
	}
	vals, cost, ok := e.Best()
	if !ok || vals[0] != 0 || cost != 0 {
		t.Fatalf("Best = %v %v %v", vals, cost, ok)
	}
}

func TestHistoryRecordsValuesNotIndices(t *testing.T) {
	var r int
	tn := newTuner(t, Options{Seed: 2}, pow2("R", &r, 16, 8192))
	tn.Start()
	applied := r
	tn.StopWithCost(1)
	h := tn.History()
	if h[0].Values[0] != applied {
		t.Fatalf("history value %d != applied %d", h[0].Values[0], applied)
	}
	if applied&(applied-1) != 0 {
		t.Fatalf("applied R=%d not a power of two", applied)
	}
}

func TestParamAccessors(t *testing.T) {
	var v int
	tn := newTuner(t, Options{Seed: 2}, linear("CI", &v, 3, 101, 1))
	ps := tn.Params()
	if len(ps) != 1 || ps[0].Name() != "CI" || len(ps[0].Values()) != 99 {
		t.Fatalf("Params() wrong: %+v", ps)
	}
	if vals := ps[0].Values(); vals[0] != 3 || vals[98] != 101 {
		t.Fatalf("Values() = %v, want 3..101", vals)
	}
}

func TestRandomSearchFindsGoodConfigs(t *testing.T) {
	var x int
	tn, err := NewRandomTuner(Options{Seed: 21}, registryOf(t, linear("x", &x, 0, 1000, 1)), 100)
	if err != nil {
		t.Fatal(err)
	}
	for !tn.Converged() {
		tn.Start()
		d := float64(x - 400)
		tn.StopWithCost(d * d)
	}
	best, _, ok := tn.Best()
	if !ok {
		t.Fatal("no best")
	}
	if math.Abs(float64(best[0]-400)) > 150 {
		t.Fatalf("random search best %v far from 400 after 100 samples", best)
	}
	// After convergence the frozen incumbent keeps being proposed.
	tn.Start()
	frozen := x
	tn.StopWithCost(1)
	if frozen != best[0] {
		t.Fatalf("converged random search proposed %d, incumbent %d", frozen, best[0])
	}
}

func TestNelderMeadBeatsRandomOnSmoothSurface(t *testing.T) {
	// What the simplex search adds over pure sampling: with the same
	// evaluation budget on a smooth 4-D bowl, NM's optimum should beat
	// random sampling's on most seeds.
	const budget = 60
	wins, ties := 0, 0
	for seed := int64(1); seed <= 9; seed++ {
		cost := func(v []int) float64 {
			c := 0.0
			for i, o := range []int{40, 20, 5, 50} {
				d := (float64(v[i]) - float64(o)) / (1 + float64(o))
				c += d * d
			}
			return c
		}
		space := func() *Registry {
			var a, b, c, d int
			var tns []Tunable
			for i, p := range []*int{&a, &b, &c, &d} {
				tns = append(tns, linear(fmt.Sprintf("p%d", i), p, 0, 100, 1))
			}
			return registryOf(t, tns...)
		}
		runFor := func(tn *Tuner) float64 {
			for i := 0; i < budget; i++ {
				tn.Start()
				vals := make([]int, 4)
				for j, p := range tn.Params() {
					vals[j] = *p.target
				}
				tn.StopWithCost(cost(vals))
			}
			_, best, _ := tn.Best()
			return best
		}

		nm := New(Options{Seed: seed})
		if err := nm.RegisterAll(space()); err != nil {
			t.Fatal(err)
		}
		nmBest := runFor(nm)

		rnd, err := NewRandomTuner(Options{Seed: seed}, space(), budget)
		if err != nil {
			t.Fatal(err)
		}
		rndBest := runFor(rnd)

		switch {
		case nmBest < rndBest:
			wins++
		case nmBest == rndBest:
			ties++
		}
	}
	if wins+ties < 6 {
		t.Fatalf("Nelder-Mead won only %d/9 seeds against random sampling", wins)
	}
}

func TestExhaustiveWithPow2Parameter(t *testing.T) {
	var ci, r int
	tn, err := NewExhaustiveTuner(Options{Seed: 1},
		registryOf(t, linear("CI", &ci, 3, 101, 14), pow2("R", &r, 16, 8192)), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for !tn.Converged() {
		tn.Start()
		seen[[2]int{ci, r}] = true
		tn.StopWithCost(float64(ci) * float64(r))
	}
	// 8 CI values (3,17,...,101) x 10 R values.
	if len(seen) != 80 {
		t.Fatalf("visited %d configurations, want 80", len(seen))
	}
	best, _, _ := tn.Best()
	if best[0] != 3 || best[1] != 16 {
		t.Fatalf("best = %v, want [3 16]", best)
	}
}

func TestRetuneWithoutHistoryIsNoop(t *testing.T) {
	var v int
	tn := newTuner(t, Options{Seed: 1}, linear("v", &v, 1, 4, 1))
	tn.Retune() // no search yet: must not panic
	if tn.Restarts() != 0 {
		t.Fatal("retune counted without a search")
	}
}

func TestRetuneKeepsBestMeaningful(t *testing.T) {
	// Regression test: Retune used to reset bestCost to +Inf while keeping
	// the best indices, so Best() returned ok=true with cost=+Inf.
	var v int
	tn := newTuner(t, Options{Seed: 7}, linear("v", &v, 1, 50, 1))
	driveTuner(tn, func(vals []int) float64 {
		d := float64(vals[0] - 30)
		return 1 + d*d
	}, 400, &v)
	wantVals, wantCost, ok := tn.Best()
	if !ok || math.IsInf(wantCost, 1) {
		t.Fatalf("pre-retune Best broken: %v %v %v", wantVals, wantCost, ok)
	}

	tn.Retune()
	if tn.Restarts() != 1 {
		t.Fatalf("Restarts = %d after one Retune", tn.Restarts())
	}
	gotVals, gotCost, ok := tn.Best()
	if !ok {
		t.Fatal("Best reports ok=false right after Retune")
	}
	if math.IsInf(gotCost, 1) {
		t.Fatal("Best reports cost=+Inf right after Retune")
	}
	if gotVals[0] != wantVals[0] || gotCost != wantCost {
		t.Fatalf("incumbent lost across Retune: got (%v, %v), want (%v, %v)",
			gotVals, gotCost, wantVals, wantCost)
	}
	if !tn.ApplyBest() || v != wantVals[0] {
		t.Fatalf("ApplyBest after Retune wrote %d, want %d", v, wantVals[0])
	}

	// The first post-restart measurement becomes the new round's best.
	tn.Start()
	tn.StopWithCost(123.0)
	if _, cost, ok := tn.Best(); !ok || math.IsInf(cost, 1) {
		t.Fatalf("Best after first post-restart cycle: cost=%v ok=%v", cost, ok)
	}
}

func TestRetuneNoOpForNonRestartableSearch(t *testing.T) {
	// Regression test: restarts must not be counted when the searcher
	// cannot restart (only Nelder-Mead supports it).
	var v int
	tn, err := NewExhaustiveTuner(Options{Seed: 3}, registryOf(t, linear("v", &v, 1, 4, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	tn.Start()
	tn.StopWithCost(5)
	before, beforeCost, ok := tn.Best()
	if !ok {
		t.Fatal("no best after one cycle")
	}
	tn.Retune()
	if tn.Restarts() != 0 {
		t.Fatalf("Restarts = %d for exhaustive search, want 0", tn.Restarts())
	}
	after, afterCost, ok := tn.Best()
	if !ok || after[0] != before[0] || afterCost != beforeCost {
		t.Fatalf("Retune corrupted exhaustive best: (%v,%v,%v) vs (%v,%v)",
			after, afterCost, ok, before, beforeCost)
	}
}
