package autotune

import (
	"reflect"
	"strings"
	"testing"
)

func TestTunableValuesScales(t *testing.T) {
	v := 0
	lin := Tunable{Name: "ci", Target: &v, Min: 3, Max: 11, Step: 4, Scale: ScaleLinear}
	got, err := lin.Values()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 7, 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("linear values = %v, want %v", got, want)
	}

	p2 := Tunable{Name: "r", Target: &v, Min: 16, Max: 128, Scale: ScalePow2}
	got, err = p2.Values()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{16, 32, 64, 128}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pow2 values = %v, want %v", got, want)
	}

	// Zero Step defaults to 1 on a linear scale.
	lin.Step = 0
	lin.Max = 5
	got, err = lin.Values()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("step-0 linear values = %v, want %v", got, want)
	}
}

func TestRegistryValidation(t *testing.T) {
	v := 0
	reg := NewRegistry()
	if err := reg.Register(Tunable{Name: "", Target: &v, Min: 1, Max: 2}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := reg.Register(Tunable{Name: "g", Target: nil, Min: 1, Max: 2}); err == nil {
		t.Fatal("nil target accepted")
	}
	if err := reg.Register(Tunable{Name: "g", Target: &v, Min: 5, Max: 2}); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := reg.Register(Tunable{Name: "g", Target: &v, Min: 1, Max: 4, Scale: ScalePow2}); err != nil {
		t.Fatalf("valid register: %v", err)
	}
	if err := reg.Register(Tunable{Name: "g", Target: &v, Min: 1, Max: 4, Scale: ScalePow2}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if reg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", reg.Len())
	}
}

func TestRegistryOrderAndLookup(t *testing.T) {
	a, b, c := 1, 2, 3
	reg := NewRegistry()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.Register(Tunable{Name: "ci", Target: &a, Min: 3, Max: 101, Step: 1, Desc: "intersection cost"}))
	must(reg.Register(Tunable{Name: "grain", Target: &b, Min: 256, Max: 65536, Scale: ScalePow2}))
	must(reg.Register(Tunable{Name: "bias", Target: &c, Min: 0, Max: 3, Step: 1}))

	if want := []string{"ci", "grain", "bias"}; !reflect.DeepEqual(reg.Names(), want) {
		t.Fatalf("Names = %v, want %v", reg.Names(), want)
	}
	tn, ok := reg.Lookup("grain")
	if !ok || tn.Scale != ScalePow2 || tn.Target != &b {
		t.Fatalf("Lookup(grain) = %+v, %v", tn, ok)
	}
	if _, ok := reg.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}

	snap := reg.Snapshot()
	if want := map[string]int{"ci": 1, "grain": 2, "bias": 3}; !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot = %v, want %v", snap, want)
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(reg.Vector(), want) {
		t.Fatalf("Vector = %v, want %v", reg.Vector(), want)
	}
	if got, want := FormatParams(snap, reg.Names()), "ci=1,grain=2,bias=3"; got != want {
		t.Fatalf("FormatParams in registry order = %q, want %q", got, want)
	}
	if got, want := FormatParams(snap, []string{"bias", "missing", "ci"}), "bias=3,ci=1"; got != want {
		t.Fatalf("FormatParams over a name subset = %q, want %q", got, want)
	}
	if got, want := FormatParams(snap, nil), "bias=3,ci=1,grain=2"; got != want {
		t.Fatalf("FormatParams sorted = %q, want %q", got, want)
	}
}

// TestRegisterAllComposesSearchSpace drives a real tuning loop whose search
// space was composed entirely from a registry and checks the tuner finds the
// planted optimum, applies it through the registered targets, and reports it
// under the registered names.
func TestRegisterAllComposesSearchSpace(t *testing.T) {
	grain, bins := 0, 0
	reg := NewRegistry()
	if err := reg.Register(Tunable{Name: "G", Target: &grain, Min: 256, Max: 4096, Scale: ScalePow2, Desc: "scatter grain"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Tunable{Name: "B", Target: &bins, Min: 8, Max: 64, Scale: ScalePow2, Desc: "SAH bins"}); err != nil {
		t.Fatal(err)
	}

	tn := New(Options{Seed: 42})
	if err := tn.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	cost := func() float64 {
		// Planted optimum at G=1024, B=32.
		dg := float64(grain - 1024)
		db := float64(bins - 32)
		return dg*dg + db*db*1e3
	}
	for i := 0; i < 200 && !tn.Converged(); i++ {
		tn.Start()
		tn.StopWithCost(cost())
	}
	best, ok := tn.BestByName()
	if !ok {
		t.Fatal("no best after tuning")
	}
	if best["G"] != 1024 || best["B"] != 32 {
		t.Fatalf("best = %v, want G=1024 B=32", best)
	}
	if !tn.ApplyBest() {
		t.Fatal("ApplyBest failed")
	}
	if grain != 1024 || bins != 32 {
		t.Fatalf("targets after ApplyBest: grain=%d bins=%d", grain, bins)
	}
}

func TestRegisterAllRejectsDuplicateAcrossRegistries(t *testing.T) {
	a, b := 0, 0
	r1, r2 := NewRegistry(), NewRegistry()
	if err := r1.Register(Tunable{Name: "x", Target: &a, Min: 1, Max: 4, Scale: ScalePow2}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Register(Tunable{Name: "x", Target: &b, Min: 1, Max: 4, Scale: ScalePow2}); err != nil {
		t.Fatal(err)
	}
	tn := New(Options{Seed: 1})
	if err := tn.RegisterAll(r1); err != nil {
		t.Fatal(err)
	}
	// Composing registries is legal (that is how the harness merges
	// build-side and render-side tunables), but a name two registries both
	// define would give BestByName one value for two dimensions.
	err := tn.RegisterAll(r2)
	if err == nil || !strings.Contains(err.Error(), `"x" registered twice`) {
		t.Fatalf("RegisterAll of a reused name: err = %v, want registered twice", err)
	}
	if len(tn.Params()) != 1 {
		t.Fatalf("params = %d after the rejected registry, want 1", len(tn.Params()))
	}
}

func TestExhaustiveFromRegistry(t *testing.T) {
	a, b := 0, 0
	reg := NewRegistry()
	if err := reg.Register(Tunable{Name: "a", Target: &a, Min: 1, Max: 3, Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Tunable{Name: "b", Target: &b, Min: 1, Max: 4, Scale: ScalePow2}); err != nil {
		t.Fatal(err)
	}
	tn, err := NewExhaustiveTuner(Options{Seed: 1}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for !tn.Converged() {
		tn.Start()
		seen[[2]int{a, b}] = true
		tn.StopWithCost(float64(a*10 + b))
	}
	if len(seen) != 9 { // 3 × 3 grid
		t.Fatalf("visited %d configs, want 9", len(seen))
	}
	best, ok := tn.BestByName()
	if !ok || best["a"] != 1 || best["b"] != 1 {
		t.Fatalf("best = %v, want a=1 b=1", best)
	}
}
