package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"kdtune/internal/kdtree"
)

func framesWithTotals(totals ...time.Duration) []FrameRecord {
	out := make([]FrameRecord, len(totals))
	for i, d := range totals {
		out[i] = FrameRecord{Iteration: i, Total: d}
	}
	return out
}

func TestSteadyStateTimeEdges(t *testing.T) {
	cases := []struct {
		name   string
		totals []time.Duration
		want   time.Duration
	}{
		{"empty run", nil, 0},
		{"single frame", []time.Duration{7 * time.Millisecond}, 7 * time.Millisecond},
		{"two frames keeps tail only", []time.Duration{100 * time.Millisecond, 4 * time.Millisecond},
			4 * time.Millisecond},
		{"three frames drops first two thirds",
			[]time.Duration{90 * time.Millisecond, 80 * time.Millisecond, 5 * time.Millisecond},
			5 * time.Millisecond},
		{"median of tail is outlier robust",
			[]time.Duration{
				50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond,
				2 * time.Millisecond, 3 * time.Millisecond, 400 * time.Millisecond,
			},
			3 * time.Millisecond},
		{"zero durations stay zero", []time.Duration{0, 0, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &RunResult{Frames: framesWithTotals(tc.totals...)}
			if got := r.SteadyStateTime(); got != tc.want {
				t.Errorf("SteadyStateTime() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSpeedupTraceEdges(t *testing.T) {
	cases := []struct {
		name   string
		totals []time.Duration
		base   time.Duration
		want   []float64
	}{
		{"empty run yields empty trace", nil, time.Second, []float64{}},
		{"single frame", []time.Duration{50 * time.Millisecond}, 100 * time.Millisecond, []float64{2}},
		{"zero frame time maps to zero not Inf",
			[]time.Duration{0, 25 * time.Millisecond}, 50 * time.Millisecond, []float64{0, 2}},
		{"zero base gives zero speedups",
			[]time.Duration{10 * time.Millisecond, 20 * time.Millisecond}, 0, []float64{0, 0}},
		{"slowdown is fractional",
			[]time.Duration{40 * time.Millisecond}, 10 * time.Millisecond, []float64{0.25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &RunResult{Frames: framesWithTotals(tc.totals...)}
			got := r.SpeedupTrace(tc.base)
			if len(got) != len(tc.want) {
				t.Fatalf("trace length %d, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if math.Abs(got[i]-tc.want[i]) > 1e-12 || math.IsInf(got[i], 0) || math.IsNaN(got[i]) {
					t.Errorf("trace[%d] = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestWithParams pins the one mapping from a named vector back onto a
// runnable configuration: names and ranges come from ComposeRegistry, R is a
// tunable of the lazy builder only, and names the vector omits keep the base
// values.
func TestWithParams(t *testing.T) {
	cases := []struct {
		name    string
		algo    kdtree.Algorithm
		params  map[string]int
		wantErr string           // error substring; "" expects success
		edit    func(*RunConfig) // the vector's edits of the normalized base
	}{
		{"empty map gives the base vector", kdtree.AlgoInPlace, map[string]int{}, "", nil},
		{"nil map gives the base vector", kdtree.AlgoLazy, nil, "", nil},
		{"unknown name", kdtree.AlgoInPlace, map[string]int{"CI": 20, "Q": 1}, `no tunable "Q"`, nil},
		{"value below Min", kdtree.AlgoInPlace, map[string]int{"CI": CIMin - 1}, "CI=2 outside [3, 101]", nil},
		{"value above Max", kdtree.AlgoNested, map[string]int{"P": PMax + 1}, "P=17 outside [1, 16]", nil},
		{"R on a non-lazy builder", kdtree.AlgoNodeLevel, map[string]int{"R": 256}, `no tunable "R"`, nil},
		{"R on the lazy builder", kdtree.AlgoLazy, map[string]int{"R": 256}, "",
			func(rc *RunConfig) { rc.Base.R = 256 }},
		{"every dimension reaches build and render", kdtree.AlgoInPlace, map[string]int{
			"CI": 40, "CB": 5, "S": 2, "B": 64, "G": 512, "GB": 1024, "SB": 2, "P": 8, "T": 32,
		}, "", func(rc *RunConfig) {
			rc.Base.CI, rc.Base.CB, rc.Base.S = 40, 5, 2
			rc.Base.Bins, rc.Base.ScatterGrain, rc.Base.BinGrain, rc.Base.SplitBias = 64, 512, 1024, 2
			rc.PacketWidth, rc.TileSize = 8, 32
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := RunConfig{Algorithm: tc.algo, Workers: 3}
			got, err := rc.WithParams(tc.params)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("WithParams(%v) error = %v, want one containing %q", tc.params, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := rc.normalize()
			if tc.edit != nil {
				tc.edit(&want)
			}
			if got.Base != want.Base || got.PacketWidth != want.PacketWidth || got.TileSize != want.TileSize {
				t.Errorf("WithParams(%v) = base %+v P=%d T=%d, want base %+v P=%d T=%d", tc.params,
					got.Base, got.PacketWidth, got.TileSize, want.Base, want.PacketWidth, want.TileSize)
			}
		})
	}
}
