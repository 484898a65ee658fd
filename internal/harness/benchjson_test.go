package harness

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

func TestNewBenchStat(t *testing.T) {
	if s := NewBenchStat(nil); s != (BenchStat{}) {
		t.Fatalf("empty sample: got %+v, want zero", s)
	}
	ds := []time.Duration{
		4 * time.Millisecond, 2 * time.Millisecond, 6 * time.Millisecond,
		8 * time.Millisecond, 10 * time.Millisecond,
	}
	s := NewBenchStat(ds)
	if s.N != 5 || s.MedianMS != 6 || s.MeanMS != 6 {
		t.Errorf("stat = %+v, want median 6, mean 6, n 5", s)
	}
	if s.IQRMS != 4 { // q1=4, q3=8 with linear interpolation
		t.Errorf("IQR = %g, want 4", s.IQRMS)
	}
	wantCoV := math.Sqrt(8.0) / 6.0 // population stddev of {2,4,6,8,10} is sqrt(8)
	if math.Abs(s.CoV-wantCoV) > 1e-12 {
		t.Errorf("CoV = %g, want %g", s.CoV, wantCoV)
	}
}

func syntheticReport(tag string, frameMS map[string]float64) *BenchReport {
	rep := &BenchReport{Schema: BenchSchema, Tag: tag, Host: Host()}
	for key, ms := range frameMS {
		parts := strings.SplitN(key, "/", 2)
		rep.Results = append(rep.Results, BenchResult{
			Scene: parts[0], Algorithm: parts[1],
			Frame:       BenchStat{MedianMS: ms, N: 9},
			Base:        BenchStat{MedianMS: ms * 1.3, N: 9},
			TunedParams: map[string]int{"CI": 17, "CB": 10, "S": 3, "P": 1, "T": 16},
		})
	}
	return rep
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := syntheticReport("trip", map[string]float64{"Sponza/in-place": 12.5})
	rep.Results[0].AllocsPerBuild = 42.5
	rep.Results[0].BytesPerBuild = 8192
	rep.Results[0].GCPauseMS = 0.25
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != "trip" || len(got.Results) != 1 || got.Results[0].Frame.MedianMS != 12.5 {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	r := got.Results[0]
	if r.AllocsPerBuild != 42.5 || r.BytesPerBuild != 8192 || r.GCPauseMS != 0.25 {
		t.Fatalf("allocation fields mangled: %+v", r)
	}
}

func TestReadBenchReportRejectsWrongSchema(t *testing.T) {
	if _, err := ReadBenchReport(bytes.NewReader([]byte(`{"schema":"bogus/v9"}`))); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadBenchReport(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestCompareBenchReports covers the regression gate: a synthetic slowdown
// past the threshold must fail the comparison (kdbench -compare turns a
// non-OK result into a non-zero exit).
func TestCompareBenchReports(t *testing.T) {
	old := syntheticReport("old", map[string]float64{
		"Sponza/in-place": 10, "Sponza/nested": 20, "Bunny/lazy": 5,
	})

	t.Run("regression detected", func(t *testing.T) {
		new := syntheticReport("new", map[string]float64{
			"Sponza/in-place": 12.5, // +25%: regressed (base scales with frame, so both metrics trip)
			"Sponza/nested":   21,   // +5%: within threshold
			"Bunny/lazy":      4,    // improved
		})
		c := CompareBenchReports(old, new, 10)
		if c.OK() {
			t.Fatal("25% slowdown passed the 10% gate")
		}
		if len(c.Regressions) != 2 {
			t.Fatalf("regressions = %+v, want base+tuned for Sponza/in-place", c.Regressions)
		}
		metrics := map[string]bool{}
		for _, r := range c.Regressions {
			if r.Key != "Sponza/in-place" {
				t.Fatalf("regression on %s, want only Sponza/in-place", r.Key)
			}
			if math.Abs(r.Pct-25) > 1e-9 {
				t.Errorf("Pct = %g, want 25", r.Pct)
			}
			metrics[r.Metric] = true
		}
		if !metrics["base"] || !metrics["tuned"] {
			t.Errorf("regression metrics = %v, want both base and tuned", metrics)
		}
		if c.Checked != 3 {
			t.Errorf("Checked = %d, want 3", c.Checked)
		}
	})

	t.Run("changed tuned config is not compared", func(t *testing.T) {
		// The searches landed on different configurations, so the tuned
		// medians measure different work: the cell must be reported, not
		// gated — while its base comparison (fixed C_base) still applies.
		new := syntheticReport("new", map[string]float64{
			"Sponza/in-place": 30, "Sponza/nested": 20, "Bunny/lazy": 5,
		})
		for i := range new.Results {
			if new.Results[i].Key() == "Sponza/in-place" {
				new.Results[i].TunedParams["CI"] = 42
				new.Results[i].Base = BenchStat{MedianMS: 13, N: 9} // = old's base (10 × 1.3)
			}
		}
		c := CompareBenchReports(old, new, 10)
		if !c.OK() {
			t.Fatalf("config-changed cell gated on tuned time: %+v", c)
		}
		if len(c.TunedSkipped) != 1 || !strings.Contains(c.TunedSkipped[0], "Sponza/in-place") {
			t.Fatalf("TunedSkipped = %v, want Sponza/in-place", c.TunedSkipped)
		}
	})

	t.Run("faulted cell fails", func(t *testing.T) {
		new := syntheticReport("new", map[string]float64{
			"Sponza/in-place": 10, "Sponza/nested": 20, "Bunny/lazy": 5,
		})
		for i := range new.Results {
			if new.Results[i].Key() == "Bunny/lazy" {
				new.Results[i].AbortedBuilds = 2
				new.Results[i].FallbackFrames = 1
			}
		}
		c := CompareBenchReports(old, new, 10)
		if c.OK() {
			t.Fatal("a cell measured through fallback builds passed the gate")
		}
		if len(c.Faulted) != 1 || !strings.Contains(c.Faulted[0], "Bunny/lazy") {
			t.Fatalf("Faulted = %v, want Bunny/lazy", c.Faulted)
		}
	})

	t.Run("missing cell fails", func(t *testing.T) {
		new := syntheticReport("new", map[string]float64{
			"Sponza/in-place": 10, "Sponza/nested": 20,
		})
		c := CompareBenchReports(old, new, 10)
		if c.OK() {
			t.Fatal("dropped benchmark cell passed the gate")
		}
		if len(c.Missing) != 1 || c.Missing[0] != "Bunny/lazy" {
			t.Fatalf("missing = %v, want [Bunny/lazy]", c.Missing)
		}
	})

	t.Run("clean pass", func(t *testing.T) {
		new := syntheticReport("new", map[string]float64{
			"Sponza/in-place": 10.5, "Sponza/nested": 19, "Bunny/lazy": 5,
			"Extra/in-place": 7, // new coverage is fine
		})
		c := CompareBenchReports(old, new, 10)
		if !c.OK() {
			t.Fatalf("clean comparison failed: %+v", c)
		}
	})

	t.Run("format mentions failures", func(t *testing.T) {
		new := syntheticReport("new", map[string]float64{
			"Sponza/in-place": 30, "Sponza/nested": 20,
		})
		var buf bytes.Buffer
		CompareBenchReports(old, new, 10).Format(&buf)
		out := buf.String()
		if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "MISSING") {
			t.Fatalf("format output lacks REGRESSION/MISSING lines:\n%s", out)
		}
	})

	t.Run("cell without tuned_params is never the same config", func(t *testing.T) {
		// A report from before the named vector existed carries no
		// tuned_params: its tuned median cannot be matched to any vector,
		// on either side of the comparison.
		for _, side := range []string{"old", "new", "both"} {
			o := syntheticReport("old", map[string]float64{"Sponza/in-place": 10})
			n := syntheticReport("new", map[string]float64{"Sponza/in-place": 30})
			if side != "new" {
				o.Results[0].TunedParams = nil
			}
			if side != "old" {
				n.Results[0].TunedParams = nil
			}
			n.Results[0].Base = o.Results[0].Base
			c := CompareBenchReports(o, n, 10)
			if !c.OK() || len(c.TunedSkipped) != 1 {
				t.Fatalf("%s side without tuned_params: OK=%v skipped=%v regressions=%+v",
					side, c.OK(), c.TunedSkipped, c.Regressions)
			}
		}
	})
}

// TestRunBenchSmall runs the full protocol at a tiny scale on one scene and
// checks the report's shape.
func TestRunBenchSmall(t *testing.T) {
	rep := RunBench(BenchOptions{
		Scenes:     []*scene.Scene{scene.WoodDoll()},
		Algorithms: []kdtree.Algorithm{kdtree.AlgoInPlace},
		Tag:        "unit",
		Settings: BenchSettings{
			Width: 48, MaxIterations: 6, MeasureFrames: 3, WarmupFrames: 1, Seed: 1,
		},
	})
	if rep.Schema != BenchSchema || rep.Tag != "unit" {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Host.NumCPU <= 0 || rep.Host.GoVersion == "" {
		t.Fatalf("host info incomplete: %+v", rep.Host)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Key() != "WoodDoll/in-place" {
		t.Errorf("key = %q", r.Key())
	}
	if r.Frame.N != 3 || r.Base.N != 3 {
		t.Errorf("warmup discard wrong: frame n=%d base n=%d, want 3", r.Frame.N, r.Base.N)
	}
	if r.Frame.MedianMS <= 0 || r.Speedup <= 0 {
		t.Errorf("degenerate stats: %+v", r)
	}
	if ci := r.TunedParams["CI"]; ci < CIMin || ci > CIMax {
		t.Errorf("tuned CI %d outside [%d, %d]", ci, CIMin, CIMax)
	}
	// The allocation probe runs on a warm Builder: the counters must be
	// finite and non-negative, and the steady state of the pooled arenas
	// should stay well under one allocation per triangle.
	if math.IsNaN(r.AllocsPerBuild) || r.AllocsPerBuild < 0 || r.BytesPerBuild < 0 || r.GCPauseMS < 0 {
		t.Errorf("allocation stats degenerate: allocs=%g bytes=%g gc=%g",
			r.AllocsPerBuild, r.BytesPerBuild, r.GCPauseMS)
	}
	if r.AllocsPerBuild > float64(r.Triangles) {
		t.Errorf("steady-state build allocates %.0f objects for %d triangles — arenas not reused?",
			r.AllocsPerBuild, r.Triangles)
	}
	// A zero DeadlineFactor is normalized to the default and recorded in the
	// report, so -compare can see which watchdog protocol was measured.
	if rep.Settings.DeadlineFactor != defaultBenchDeadlineFactor {
		t.Errorf("Settings.DeadlineFactor = %d, want default %d",
			rep.Settings.DeadlineFactor, defaultBenchDeadlineFactor)
	}
}

// TestBenchSettingsDeadlineFactorPassthrough pins that an explicit watchdog
// multiple survives normalization and lands in the report verbatim.
func TestBenchSettingsDeadlineFactorPassthrough(t *testing.T) {
	o := BenchOptions{Settings: BenchSettings{DeadlineFactor: 25}}.normalized()
	if o.Settings.DeadlineFactor != 25 {
		t.Fatalf("DeadlineFactor = %d, want 25", o.Settings.DeadlineFactor)
	}
	o = BenchOptions{}.normalized()
	if o.Settings.DeadlineFactor != defaultBenchDeadlineFactor {
		t.Fatalf("default DeadlineFactor = %d, want %d", o.Settings.DeadlineFactor, defaultBenchDeadlineFactor)
	}
}
