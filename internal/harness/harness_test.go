package harness

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// tinyScene builds a small static scene so harness tests stay fast.
func tinyScene() *scene.Scene {
	var tris []vecmath.Triangle
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			x, z := float64(i)*0.5, float64(j)*0.5
			y := 0.3 * math.Sin(x+z)
			tris = append(tris,
				vecmath.Tri(vecmath.V(x, y, z), vecmath.V(x+0.5, y, z), vecmath.V(x, y, z+0.5)),
				vecmath.Tri(vecmath.V(x+0.5, y, z), vecmath.V(x+0.5, y, z+0.5), vecmath.V(x, y, z+0.5)),
			)
		}
	}
	return scene.NewStatic("tiny", tris, scene.View{
		Eye: vecmath.V(3, 4, -2), LookAt: vecmath.V(3, 0, 3), Up: vecmath.V(0, 1, 0), FOV: 60,
	}, []vecmath.Vec3{vecmath.V(3, 8, 3)})
}

// tinyDynamic is a two-frame animated scene.
func tinyDynamic(frames int) *scene.Scene {
	base := tinyScene().Base()
	n := len(base)
	body := append([]vecmath.Triangle(nil), base...)
	return scene.NewAnimated("tinydyn", body, frames, scene.View{
		Eye: vecmath.V(3, 4, -2), LookAt: vecmath.V(3, 0, 3), Up: vecmath.V(0, 1, 0), FOV: 60,
	}, []vecmath.Vec3{vecmath.V(3, 8, 3)}, []scene.Part{{
		Start: n / 2, End: n,
		Motion: func(f int) vecmath.Mat4 {
			return vecmath.Translate(vecmath.V(0, 0.1*float64(f), 0))
		},
	}}, nil)
}

// frameVector names a frame's parameter vector.
func frameVector(res *RunResult, f FrameRecord) map[string]int {
	m := make(map[string]int, len(f.Params))
	for i, name := range res.ParamNames {
		m[name] = f.Params[i]
	}
	return m
}

func fastOpts() Opts {
	return Opts{
		Workers: 4, Width: 32, Height: 24,
		Repeats: 2, MaxIterations: 12, BaseFrames: 3, Seed: 7,
	}
}

func TestRunFixedRecordsFrames(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoInPlace,
		Search: SearchFixed, Workers: 2, Width: 24, Height: 18,
		MaxIterations: 5,
	})
	if len(res.Frames) != 5 {
		t.Fatalf("recorded %d frames, want 5", len(res.Frames))
	}
	for _, f := range res.Frames {
		if v := frameVector(res, f); v["CI"] != 17 || v["CB"] != 10 || v["S"] != 3 {
			t.Fatalf("fixed run drifted from base config: %v", v)
		}
		if f.Total <= 0 || f.Build <= 0 {
			t.Fatalf("non-positive timings: %+v", f)
		}
		if f.FrameIndex != 0 {
			t.Fatalf("static scene should stay on frame 0, got %d", f.FrameIndex)
		}
	}
	if tp := res.TunedParams; tp["CI"] != 17 || tp["CB"] != 10 || tp["S"] != 3 {
		t.Fatalf("fixed run best config wrong: %v", tp)
	}
}

func TestRunNelderMeadStaysInBounds(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoLazy,
		Search: SearchNelderMead, Workers: 2, Width: 24, Height: 18,
		MaxIterations: 25, Seed: 3,
	})
	if len(res.Frames) == 0 {
		t.Fatal("no frames")
	}
	for _, f := range res.Frames {
		v := frameVector(res, f)
		if v["CI"] < CIMin || v["CI"] > CIMax || v["CB"] < CBMin || v["CB"] > CBMax ||
			v["S"] < SMin || v["S"] > SMax || v["R"] < RMin || v["R"] > RMax {
			t.Fatalf("configuration escaped Table II ranges: %v", v)
		}
		if v["R"]&(v["R"]-1) != 0 {
			t.Fatalf("R=%d not a power of two", v["R"])
		}
	}
	if res.BestTotal <= 0 {
		t.Fatal("no steady-state time")
	}
}

func TestRunNonLazyDoesNotTuneR(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoNested,
		Search: SearchNelderMead, Workers: 2, Width: 24, Height: 18,
		MaxIterations: 10, Seed: 5,
	})
	if slices.Contains(res.ParamNames, "R") {
		t.Fatalf("R registered for a non-lazy algorithm: %v", res.ParamNames)
	}
	if _, ok := res.TunedParams["R"]; ok {
		t.Fatalf("R reported for a non-lazy algorithm: %v", res.TunedParams)
	}
}

func TestFrameSequenceDynamic(t *testing.T) {
	sc := tinyDynamic(3)
	rc := RunConfig{Scene: sc, RepeatFrames: 5}.normalize()
	seq := frameSequence(rc)
	// Frames: 0,0,0,0,0, 1,1,1,1,1, 2,2,2,2,2, wrap.
	for i := 0; i < 30; i++ {
		want := (i % 15) / 5
		if got := seq(i); got != want {
			t.Fatalf("seq(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestFrameSequenceStatic(t *testing.T) {
	rc := RunConfig{Scene: tinyScene()}.normalize()
	seq := frameSequence(rc)
	for i := 0; i < 10; i++ {
		if seq(i) != 0 {
			t.Fatal("static scene left frame 0")
		}
	}
}

func TestRunDynamicAdvancesFrames(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyDynamic(4), Algorithm: kdtree.AlgoInPlace,
		Search: SearchFixed, Workers: 2, Width: 16, Height: 12,
		MaxIterations: 12, RepeatFrames: 2,
	})
	seen := map[int]bool{}
	for _, f := range res.Frames {
		seen[f.FrameIndex] = true
	}
	if len(seen) < 3 {
		t.Fatalf("dynamic run visited only frames %v", seen)
	}
}

func TestMeasureFixedPositive(t *testing.T) {
	d := MeasureFixed(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoNodeLevel,
		Workers: 2, Width: 16, Height: 12,
	}, 3)
	if d <= 0 {
		t.Fatal("MeasureFixed returned non-positive duration")
	}
}

func TestExhaustiveRunTerminates(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyDynamic(2), Algorithm: kdtree.AlgoNodeLevel,
		Search: SearchExhaustive, Workers: 2, Width: 16, Height: 12,
		MaxIterations:     1 << 20,
		ExhaustiveStrides: []int{49, 30, 7}, // 3*3*2 = 18 configs
		PostConverge:      2,
	})
	if len(res.Frames) > 25 {
		t.Fatalf("exhaustive run did not stop at grid end: %d frames", len(res.Frames))
	}
	if res.ConvergedAt < 0 {
		t.Fatal("exhaustive run never finished its grid")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.N != 5 || s.Mean != 3 {
		t.Fatalf("Summarize wrong: %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles wrong: %+v", s)
	}
	if (Summary{}) != Summarize(nil) {
		t.Fatal("empty summarize should be zero")
	}
	one := Summarize([]float64{7})
	if one.Min != 7 || one.Q1 != 7 || one.Max != 7 {
		t.Fatalf("singleton summary wrong: %+v", one)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestNormalize(t *testing.T) {
	if Normalize01(3, 3, 101) != 0 || Normalize01(101, 3, 101) != 100 {
		t.Fatal("Normalize01 endpoints wrong")
	}
	if Normalize01(5, 5, 5) != 0 {
		t.Fatal("degenerate range should map to 0")
	}
	if NormalizeLog2(16, 16, 8192) != 0 || NormalizeLog2(8192, 16, 8192) != 100 {
		t.Fatal("NormalizeLog2 endpoints wrong")
	}
	mid := NormalizeLog2(512, 16, 8192) // log2: 4..13, 512 -> 9 -> (9-4)/9
	if math.Abs(mid-100*5.0/9.0) > 1e-9 {
		t.Fatalf("NormalizeLog2 mid = %v", mid)
	}
}

func TestMedianDuration(t *testing.T) {
	if MedianDuration(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
	ds := []time.Duration{5, 1, 9}
	if MedianDuration(ds) != 5 {
		t.Fatal("median wrong")
	}
	// input must not be reordered
	if ds[0] != 5 || ds[2] != 9 {
		t.Fatal("MedianDuration mutated its input")
	}
}

func TestPlatforms(t *testing.T) {
	ps := Platforms()
	if len(ps) != 4 {
		t.Fatalf("want 4 platforms, got %d", len(ps))
	}
	if ps[0].Threads != 24 {
		t.Fatalf("reference platform should be the 24-thread Opteron")
	}
	for _, p := range ps {
		if p.Threads < 1 || p.Name == "" {
			t.Fatalf("bad platform %+v", p)
		}
	}
}

func TestSpeedupCell(t *testing.T) {
	c := SpeedupCell{Base: 200 * time.Millisecond, Tuned: 100 * time.Millisecond}
	if c.Speedup() != 2 {
		t.Fatalf("Speedup = %v", c.Speedup())
	}
	if (SpeedupCell{}).Speedup() != 0 {
		t.Fatal("zero cell should have speedup 0")
	}
}

func TestSpeedupExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	cells, err := SpeedupExperiment([]string{"WoodDoll"}, []kdtree.Algorithm{kdtree.AlgoInPlace}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells", len(cells))
	}
	c := cells[0]
	if c.Base <= 0 || c.Tuned <= 0 {
		t.Fatalf("missing timings: %+v", c)
	}
	if ci := c.TunedParams["CI"]; ci < CIMin || ci > CIMax {
		t.Fatalf("tuned CI out of range: %+v", c)
	}

	var buf bytes.Buffer
	PrintFigure5(&buf, cells)
	PrintFigure6(&buf, cells)
	out := buf.String()
	if !strings.Contains(out, "WoodDoll") || !strings.Contains(out, "in-place") {
		t.Fatalf("printers lost data:\n%s", out)
	}
}

func TestSpeedupExperimentUnknownScene(t *testing.T) {
	if _, err := SpeedupExperiment([]string{"nope"}, kdtree.Algorithms, fastOpts()); err == nil {
		t.Fatal("unknown scene accepted")
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	PrintTableI(&buf)
	PrintTableII(&buf)
	out := buf.String()
	for _, want := range []string{"CI", "CB", "S", "R", "[3, 101]", "[0, 60]", "[1, 8]", "powers of 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	PrintFigure7(&buf, "Figure 7a", []ParamDistribution{
		{Label: "Bunny", Param: "CI", Summary: Summarize([]float64{10, 20, 30})},
	})
	if !strings.Contains(buf.String(), "Bunny") {
		t.Fatal("figure 7 printer lost label")
	}

	buf.Reset()
	PrintFigure8(&buf, "Sponza", []ConvergencePoint{{0, 0.8}, {1, 1.5}})
	if !strings.Contains(buf.String(), "Sponza") || !strings.Contains(buf.String(), "1.50x") {
		t.Fatalf("figure 8 printer wrong:\n%s", buf.String())
	}

	buf.Reset()
	PrintFigure9(&buf, "Sibenik", []SearchComparison{{
		Algorithm: kdtree.AlgoLazy,
		Default:   Summarize([]float64{1}), NelderMead: Summarize([]float64{0.6}),
		Exhaustive: Summarize([]float64{0.5}),
	}})
	if !strings.Contains(buf.String(), "lazy") {
		t.Fatal("figure 9 printer lost algorithm")
	}
}

func TestSpeedupTrace(t *testing.T) {
	r := &RunResult{Frames: []FrameRecord{
		{Total: 200 * time.Millisecond},
		{Total: 100 * time.Millisecond},
	}}
	tr := r.SpeedupTrace(100 * time.Millisecond)
	if len(tr) != 2 || tr[0] != 0.5 || tr[1] != 1.0 {
		t.Fatalf("trace = %v", tr)
	}
}

func TestSelectAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("selection runs four tuning loops")
	}
	sel := SelectAlgorithm(tinyScene(), fastOpts())
	if len(sel.Choices) != 4 {
		t.Fatalf("selection tried %d algorithms", len(sel.Choices))
	}
	if sel.Best.Tuned <= 0 {
		t.Fatal("no winner")
	}
	for _, c := range sel.Choices {
		if c.Tuned < sel.Best.Tuned {
			t.Fatalf("winner %v (%v) is not the fastest; %v took %v",
				sel.Best.Algorithm, sel.Best.Tuned, c.Algorithm, c.Tuned)
		}
	}
	var buf bytes.Buffer
	PrintSelection(&buf, sel)
	if !strings.Contains(buf.String(), sel.Best.Algorithm.String()) {
		t.Fatal("printer lost the winner")
	}
}

func TestCameraPathAdvancesViews(t *testing.T) {
	sc := tinyScene().WithCameraPath(6, func(f int) scene.View {
		v := tinyScene().View
		v.Eye = v.Eye.Add(vecmath.V(float64(f), 0, 0))
		return v
	})
	if sc.ViewAt(0).Eye == sc.ViewAt(5).Eye {
		t.Fatal("camera path does not move the eye")
	}
	// Out-of-range frames clamp.
	if sc.ViewAt(99).Eye != sc.ViewAt(5).Eye {
		t.Fatal("camera path frame not clamped")
	}
	res := Run(RunConfig{
		Scene: sc, Algorithm: kdtree.AlgoInPlace, Search: SearchFixed,
		Workers: 2, Width: 16, Height: 12, MaxIterations: 8, RepeatFrames: 1,
	})
	frames := map[int]bool{}
	for _, f := range res.Frames {
		frames[f.FrameIndex] = true
	}
	if len(frames) < 4 {
		t.Fatalf("camera-path run visited only frames %v", frames)
	}
}

func TestRetuneOptionsReachTuner(t *testing.T) {
	// With drift detection enabled the run must still behave; this is a
	// plumbing test (the adaptation behaviour itself is covered in the
	// autotune package where the cost surface is controllable).
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoNodeLevel,
		Search: SearchNelderMead, Workers: 2, Width: 16, Height: 12,
		MaxIterations: 15, Seed: 2,
		RetuneThreshold: 2.0, RetuneWindow: 3,
	})
	if len(res.Frames) == 0 {
		t.Fatal("no frames recorded")
	}
}

func TestCSVWriters(t *testing.T) {
	var buf bytes.Buffer
	cells := []SpeedupCell{{
		Scene: "Sibenik", Algorithm: kdtree.AlgoLazy,
		Base: 200 * time.Millisecond, Tuned: 100 * time.Millisecond,
		TunedParams: map[string]int{"CI": 40, "CB": 5, "S": 2, "R": 512, "B": 32}, ConvergedAt: 33,
	}, {
		Scene: "Sibenik", Algorithm: kdtree.AlgoNested,
		Base: 200 * time.Millisecond, Tuned: 100 * time.Millisecond,
		TunedParams: map[string]int{"CI": 40, "CB": 5, "S": 2}, ConvergedAt: -1,
	}}
	if err := WriteSpeedupCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Sibenik,lazy,0.200000,0.100000,2.0000,40,5,2,512,33") {
		t.Fatalf("speedup CSV wrong:\n%s", out)
	}
	// R is not a dimension of the nested builder: its field stays empty.
	if !strings.Contains(out, "Sibenik,nested,0.200000,0.100000,2.0000,40,5,2,,-1") {
		t.Fatalf("speedup CSV invents R for a non-lazy builder:\n%s", out)
	}

	buf.Reset()
	if err := WriteDistributionCSV(&buf, []ParamDistribution{
		{Label: "Sponza", Param: "CI", Summary: Summarize([]float64{1, 2, 3})},
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Sponza,CI,1.0000") {
		t.Fatalf("distribution CSV wrong:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteConvergenceCSV(&buf, []ConvergencePoint{{3, 1.25}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3,1.2500") {
		t.Fatalf("convergence CSV wrong:\n%s", buf.String())
	}
}
