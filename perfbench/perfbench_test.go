package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"kdtune/internal/vecmath"
)

func TestPercentileInterpolatesClosestRanks(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {-1, 1}, {2, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{7}, 0.9) != 7 {
		t.Error("empty or single-sample percentile wrong")
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if tailOK(99, 0.9) || !tailOK(100, 0.9) {
		t.Error("p90 needs exactly 100 samples for ten beyond it")
	}
	if tailOK(math.MaxInt-1, 1) {
		t.Error("p100 never has samples beyond it")
	}
}

func TestFailCounting(t *testing.T) {
	var tl tally
	for _, ok := range []bool{true, false, true, true, false} {
		tl.record(ok)
	}
	if tl.attempted != 5 || tl.failed != 2 {
		t.Fatalf("tally = %+v, want 5 attempted, 2 failed", tl)
	}
	if got := failRatio(tl.attempted, tl.failed); got != 0.4 {
		t.Errorf("failRatio = %v, want 0.4", got)
	}
	if got := okRatio(tl.attempted, tl.failed); got != 0.6 {
		t.Errorf("okRatio = %v, want 0.6", got)
	}
	if okRatio(0, 0) != 0 || failRatio(0, 0) != 1 {
		t.Error("a run with no attempted op must not read as healthy")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: "kdtree", Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 0, Layer: "kdtree", Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Op: 0, Layer: "render", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 2, Op: 0, Layer: "render", Start: 25, End: 45},  // grandchild of 0
	}
	want := []int64{100 - (40 + 10), 20, 30 - 20, 30, 20}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	L := map[string]metric{}
	addSelfTimes(L, spans)
	for layer, ms := range map[string]float64{"bench": 50e-6, "kdtree": 30e-6, "render": 50e-6} {
		if got := L["trace."+layer+"_self_ms"].Value; math.Abs(got-ms) > 1e-15 {
			t.Errorf("%s self = %v ms, want %v", layer, got, ms)
		}
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	ivs := [][2]int64{{50, 60}, {0, 20}, {15, 25}, {58, 200}}
	if got := coveredNS(ivs, 10, 100); got != (25-10)+(100-50) {
		t.Errorf("coveredNS = %d, want 65", got)
	}
	if coveredNS(nil, 0, 10) != 0 {
		t.Error("no children cover nothing")
	}
}

func TestTracerNilRecordsNothingAndMergeRenumbers(t *testing.T) {
	var nilTr *tracer
	if id := nilTr.begin("bench", "op", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	nilTr.end(-1)

	a, b := newTracer(time.Now()), newTracer(time.Now())
	ra := a.begin("bench", "op", -1, 0)
	a.end(a.begin("serve", "/render", ra, 0))
	a.end(ra)
	rb := b.begin("bench", "op", -1, 1)
	b.end(b.begin("serve", "/nn", rb, 1))
	b.end(rb)
	m := merge(a, nil, b)
	if len(m) != 4 {
		t.Fatalf("merged %d spans, want 4", len(m))
	}
	for i, s := range m {
		if s.ID != int32(i) {
			t.Errorf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if m[1].Parent != 0 || m[3].Parent != 2 || m[2].Parent != -1 {
		t.Errorf("parents not renumbered: %+v", m)
	}
}

func TestOverheadPct(t *testing.T) {
	if got := overheadPct([]float64{11, 12, 11}, []float64{10, 10, 9}); math.Abs(got-10) > 1e-9 {
		t.Errorf("overheadPct = %v, want 10", got)
	}
	if overheadPct(nil, []float64{10}) != 0 || overheadPct([]float64{1}, nil) != 0 {
		t.Error("overhead without both halves must read 0")
	}
}

func TestServeMixIsSeededAndDealsExactShares(t *testing.T) {
	bounds := []vecmath.AABB{
		vecmath.NewAABB(vecmath.V(0, 0, 0), vecmath.V(1, 1, 1)),
		vecmath.NewAABB(vecmath.V(-2, -2, -2), vecmath.V(2, 2, 2)),
	}
	draw := func(seed int64, n int) []opSpec {
		s := newOpStream(seed, bounds)
		out := make([]opSpec, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !slices.Equal(draw(7, 500), draw(7, 500)) {
		t.Fatal("the same seed gave two op streams")
	}
	if slices.Equal(draw(7, 500), draw(8, 500)) {
		t.Fatal("two seeds gave the same op stream")
	}
	total := 0
	for _, c := range opMix {
		total += c.pct
		if c.pct*deckSize%100 != 0 {
			t.Errorf("share %d%% is not a whole number of ops per %d-op block", c.pct, deckSize)
		}
	}
	if total != 100 {
		t.Fatalf("mix shares sum to %d%%", total)
	}
	const blocks = 50
	ops := draw(11, blocks*deckSize)
	for b := 0; b < blocks; b++ {
		count := map[[2]int]int{}
		for _, sp := range ops[b*deckSize : (b+1)*deckSize] {
			count[[2]int{int(sp.kind), sp.scene}]++
			if sp.kind == kindRange && !sp.box.Overlaps(bounds[sp.scene]) {
				t.Fatalf("range box %v outside its scene", sp.box)
			}
		}
		for _, c := range opMix {
			got := 0
			for s := range bounds {
				if c.scene < 0 || c.scene == s {
					got += count[[2]int{int(c.kind), s}]
				}
			}
			if want := c.pct * deckSize / 100; got != want {
				t.Fatalf("block %d: %d %s ops (scene %d), want %d", b, got, c.kind, c.scene, want)
			}
		}
	}
}

// TestSliceStatistics checks the slices behind ops_per_s and op_ms_p90:
// consecutive and near-equal in count, a rate of ops ÷ summed latency, and
// medians over slices, so a stall moves a few slices and not the figure.
func TestSliceStatistics(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var out []time.Duration
		for _, x := range xs {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	split := splitRun(ms(100, 100, 250, 250, 500, 2000, 7), 3)
	want := [][]time.Duration{ms(100, 100), ms(250, 250), ms(500, 2000, 7)}
	if len(split) != len(want) || !slices.Equal(split[0], want[0]) || !slices.Equal(split[1], want[1]) ||
		!slices.Equal(split[2], want[2]) {
		t.Fatalf("splitRun = %v, want %v", split, want)
	}
	if got := len(splitRun(ms(100, 100), runSlices)); got != 2 {
		t.Errorf("splitRun of 2 ops into %d slices gave %d, want 2", runSlices, got)
	}
	if got, want := sliceRates(splitRun(ms(100, 100, 250, 250, 500, 2000), 3)), []float64{10, 4, 0.8}; !slices.Equal(got, want) {
		t.Errorf("sliceRates = %v, want %v", got, want)
	}

	// 80 ops of 100 ms, ten of them stalled to 900 ms inside one slice: the
	// stall leaves every other slice's p90 and rate untouched.
	steady := make([]time.Duration, 80)
	for i := range steady {
		steady[i] = 100 * time.Millisecond
		if i >= 20 && i < 30 {
			steady[i] = 900 * time.Millisecond
		}
	}
	run := splitRun(steady, runSlices)
	if p := percentile(durationsMS(steady), 0.9); p != 900 {
		t.Fatalf("pooled p90 = %v, want the stall's 900", p)
	}
	if p := slicePercentile(run, 0.9); p != 100 {
		t.Errorf("slicePercentile = %v, want 100", p)
	}
	if r := median(sliceRates(run)); r != 10 {
		t.Errorf("median slice rate = %v, want 10", r)
	}
}

// TestRunOrderInterleavesTenants checks that the serve ops are put back in
// the order the closed loop ran them, leaving out failed ones.
func TestRunOrderInterleavesTenants(t *testing.T) {
	rec := func(ms int, fail bool) opRecord {
		r := opRecord{latency: time.Duration(ms) * time.Millisecond}
		if fail {
			r.err = errors.New("check failed")
		}
		return r
	}
	recs := [][]opRecord{
		{rec(1, false), rec(3, true), rec(5, false)},
		{rec(2, false), rec(4, false)},
	}
	got := runOrder(recs)
	want := []time.Duration{1e6, 2e6, 4e6, 5e6}
	if !slices.Equal(got, want) {
		t.Errorf("runOrder = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesOutput pins BENCHMARK.json to what the program
// prints: the end-to-end names of an untraced result, and the per-layer
// names and units of a traced one.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	out := &outcome{
		setups: []time.Duration{time.Second}, ops: []time.Duration{time.Millisecond},
		attempted: 1, slices: [][]time.Duration{{time.Millisecond}}, rates: []float64{1},
	}
	check := func(trace bool, want []struct{ Name, Unit string }) {
		res := summarize(options{trace: trace}, out)
		var names []string
		for name, m := range res.Metrics {
			names = append(names, name+" "+m.Unit)
		}
		var wantNames []string
		for _, m := range want {
			wantNames = append(wantNames, m.Name+" "+m.Unit)
		}
		sort.Strings(names)
		sort.Strings(wantNames)
		if !slices.Equal(names, wantNames) {
			t.Errorf("trace=%v prints %v, BENCHMARK.json lists %v", trace, names, wantNames)
		}
	}
	check(false, spec.EndToEnd)
	check(true, spec.PerLayer)
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "serve", "--seed", "9", "--seconds", "2.5", "--trace", "1"})
	if err != nil || o.workload != "serve" || o.seed != 9 || o.window != 2500*time.Millisecond || !o.trace {
		t.Errorf("parseArgs = %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "tune", "--seconds", "0"},
		{"--workload", "tune", "--trace", "2"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%v) accepted", bad)
		}
	}
}
