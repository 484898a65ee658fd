// End-to-end fault drills: inject panics, stalls and phantom memory pressure
// into live builds and assert the guarded pipeline turns every one of them
// into a typed abort, a rendered fallback frame, and an untouched Builder.
// The external test package lets these tests import kdtree and harness (both
// of which import faultinject).
package faultinject_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"kdtune/internal/faultinject"
	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

var allAlgorithms = []kdtree.Algorithm{
	kdtree.AlgoNodeLevel, kdtree.AlgoNested, kdtree.AlgoInPlace,
	kdtree.AlgoLazy, kdtree.AlgoMedian,
}

func e2eTriangles(n int) []vecmath.Triangle {
	r := rand.New(rand.NewSource(4242))
	tris := make([]vecmath.Triangle, n)
	for i := range tris {
		c := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		tris[i] = vecmath.Tri(
			c.Add(vecmath.V(r.NormFloat64()*0.2, r.NormFloat64()*0.2, r.NormFloat64()*0.2)),
			c.Add(vecmath.V(r.NormFloat64()*0.2, r.NormFloat64()*0.2, r.NormFloat64()*0.2)),
			c.Add(vecmath.V(r.NormFloat64()*0.2, r.NormFloat64()*0.2, r.NormFloat64()*0.2)),
		)
	}
	return tris
}

func e2eConfig(a kdtree.Algorithm) kdtree.Config {
	c := kdtree.BaseConfig(a)
	c.Workers = 4
	c.R = 32
	return c
}

func serialize(t *testing.T, tree *kdtree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// wantAbort asserts err is a *BuildAborted with the given cause.
func wantAbort(t *testing.T, err error, cause kdtree.AbortCause) *kdtree.BuildAborted {
	t.Helper()
	if err == nil {
		t.Fatalf("build did not abort")
	}
	var ba *kdtree.BuildAborted
	if !errors.As(err, &ba) {
		t.Fatalf("error is %T (%v), want *BuildAborted", err, err)
	}
	if ba.Cause != cause {
		t.Fatalf("abort cause %v, want %v (err: %v)", ba.Cause, cause, err)
	}
	return ba
}

// drillPanic injects a one-shot panic fault, asserts the guarded build turns
// it into AbortWorkerPanic carrying the *Injected sentinel, and that the same
// Builder then rebuilds bitwise-identically to a fresh one.
func drillPanic(t *testing.T, cfg kdtree.Config, tris []vecmath.Triangle, f faultinject.Fault) {
	t.Helper()
	a := cfg.Algorithm
	fresh := serialize(t, kdtree.NewBuilder().Build(tris, cfg))

	b := kdtree.NewBuilder()
	in := faultinject.Activate(f)
	tree, err := b.BuildGuarded(tris, cfg, kdtree.Guard{})
	in.Deactivate()
	if hits := in.TotalHits(); hits == 0 {
		t.Fatalf("%v/%v: fault never fired — site not probed by this builder", a, f.Site)
	}
	if tree != nil {
		t.Fatalf("%v/%v: aborted build returned a tree", a, f.Site)
	}
	ba := wantAbort(t, err, kdtree.AbortWorkerPanic)
	var inj *faultinject.Injected
	if !errors.As(ba, &inj) {
		t.Fatalf("%v/%v: abort does not unwrap to *Injected: %v", a, f.Site, err)
	}
	if inj.Fault.Site != f.Site {
		t.Errorf("%v: Injected carries site %v, want %v", a, inj.Fault.Site, f.Site)
	}

	rebuilt := b.Build(tris, cfg)
	if err := rebuilt.Validate(); err != nil {
		t.Fatalf("%v/%v: post-abort tree invalid: %v", a, f.Site, err)
	}
	if !bytes.Equal(fresh, serialize(t, rebuilt)) {
		t.Errorf("%v/%v: post-panic rebuild differs from fresh build", a, f.Site)
	}
}

// TestPanicAtBuildSites: the node and leaf probes are on every builder's
// spine, so a panic there exercises panic containment in all six algorithms.
func TestPanicAtBuildSites(t *testing.T) {
	tris := e2eTriangles(3000)
	for _, a := range allAlgorithms {
		for _, site := range []faultinject.Site{faultinject.SiteBuildNode, faultinject.SiteBuildLeaf} {
			cfg := e2eConfig(a)
			if a == kdtree.AlgoLazy && site == faultinject.SiteBuildLeaf {
				// The lazy builder defers every small subtree instead of
				// materialising leaves; R=2 disables deferral so the leaf
				// probe is actually on its path.
				cfg.R = 2
			}
			drillPanic(t, cfg, tris, faultinject.Fault{
				Site: site, Index: -1, Kind: faultinject.KindPanic, Count: 1,
			})
		}
	}
}

// TestPanicInParallelChunk: a panic inside a ForChunks worker body (the
// nested partition loops, the in-place frontier scatter) must be contained.
func TestPanicInParallelChunk(t *testing.T) {
	tris := e2eTriangles(6000) // above nestedSequentialCutoff so chunks dispatch
	for _, a := range []kdtree.Algorithm{kdtree.AlgoNested, kdtree.AlgoInPlace, kdtree.AlgoLazy} {
		drillPanic(t, e2eConfig(a), tris, faultinject.Fault{
			Site: faultinject.SiteParallelChunk, Index: -1, Kind: faultinject.KindPanic, Count: 1,
		})
	}
}

// TestPanicInPoolTask: a panic on a pool worker goroutine (a spawned subtree
// task) arrives through the pool's panic handler, not a process crash.
func TestPanicInPoolTask(t *testing.T) {
	tris := e2eTriangles(6000)
	for _, a := range []kdtree.Algorithm{kdtree.AlgoNodeLevel, kdtree.AlgoMedian} {
		drillPanic(t, e2eConfig(a), tris, faultinject.Fault{
			Site: faultinject.SitePoolTask, Index: -1, Kind: faultinject.KindPanic, Count: 1,
		})
	}
}

// TestDelayTriggersDeadline: a stalled node (KindDelay) plus a Guard deadline
// must produce AbortDeadline — the watchdog path, deterministically.
func TestDelayTriggersDeadline(t *testing.T) {
	tris := e2eTriangles(3000)
	for _, a := range allAlgorithms {
		b := kdtree.NewBuilder()
		in := faultinject.Activate(faultinject.Fault{
			Site: faultinject.SiteBuildNode, Index: -1, Kind: faultinject.KindDelay,
			Delay: 50 * time.Millisecond, Count: 1,
		})
		_, err := b.BuildGuarded(tris, e2eConfig(a), kdtree.Guard{Deadline: 5 * time.Millisecond})
		in.Deactivate()
		wantAbort(t, err, kdtree.AbortDeadline)

		tree := b.Build(tris, e2eConfig(a))
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: post-deadline rebuild invalid: %v", a, err)
		}
	}
}

// TestInflateTriggersMemoryAbort: phantom arena pressure (KindInflate) must
// trip MaxArenaBytes without any real allocation.
func TestInflateTriggersMemoryAbort(t *testing.T) {
	tris := e2eTriangles(3000)
	for _, a := range allAlgorithms {
		b := kdtree.NewBuilder()
		in := faultinject.Activate(faultinject.Fault{
			Site: faultinject.SiteArena, Index: -1, Kind: faultinject.KindInflate, Bytes: 1 << 40,
		})
		_, err := b.BuildGuarded(tris, e2eConfig(a), kdtree.Guard{MaxArenaBytes: 1 << 20})
		in.Deactivate()
		wantAbort(t, err, kdtree.AbortMemory)

		tree := b.Build(tris, e2eConfig(a))
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: post-memory-abort rebuild invalid: %v", a, err)
		}
	}
}

// TestLazyExpansionPanicRetries: a worker panic inside a lazy expansion
// surfaces on the touching caller as a *parallel.WorkerPanic and leaves the
// node unexpanded, so the next touch retries it on a fresh Builder instead
// of dereferencing a subtree that was never stored.
func TestLazyExpansionPanicRetries(t *testing.T) {
	tris := e2eTriangles(3000)
	cfg := e2eConfig(kdtree.AlgoLazy)
	cfg.R = 1024
	fresh := kdtree.NewBuilder().Build(tris, cfg)
	fresh.ExpandAll()
	want := serialize(t, fresh)

	tree, err := kdtree.NewBuilder().BuildGuarded(tris, cfg, kdtree.Guard{})
	if err != nil {
		t.Fatalf("lazy build: %v", err)
	}
	if tree.Stats().NumDefer == 0 {
		t.Fatalf("lazy build at R=%d deferred no node", cfg.R)
	}
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteBuildNode, Index: -1, Kind: faultinject.KindPanic, Count: 1,
	})
	r := func() (r any) {
		defer func() { r = recover() }()
		tree.ExpandAll()
		return nil
	}()
	in.Deactivate()
	wp, ok := r.(*parallel.WorkerPanic)
	if !ok {
		t.Fatalf("first expansion panicked with %T (%v), want *parallel.WorkerPanic", r, r)
	}
	var inj *faultinject.Injected
	if !errors.As(wp, &inj) || inj.Fault.Site != faultinject.SiteBuildNode {
		t.Fatalf("expansion panic does not unwrap to the injected SiteBuildNode fault: %v", wp)
	}

	if err := tree.Validate(); err != nil {
		t.Fatalf("retried expansion: %v", err)
	}
	if !bytes.Equal(want, serialize(t, tree)) {
		t.Errorf("retried lazy tree differs from a fresh tree after ExpandAll")
	}
}

// gridScene is a small static scene (288 triangles) for harness drills.
func gridScene() *scene.Scene {
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
	return scene.NewStatic("grid", tris, scene.View{
		Eye: vecmath.V(3, 4, -2), LookAt: vecmath.V(3, 0, 3), Up: vecmath.V(0, 1, 0), FOV: 60,
	}, []vecmath.Vec3{vecmath.V(3, 8, 3)})
}

// TestHarnessAbortFallbackRecover is the full loop drill: a worker panic in
// frame 0's build must yield one censored, fallback-rendered frame and leave
// the rest of the run untouched.
func TestHarnessAbortFallbackRecover(t *testing.T) {
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteBuildNode, Index: -1, Kind: faultinject.KindPanic, Count: 1,
	})
	defer in.Deactivate()
	res := harness.Run(harness.RunConfig{
		Scene: gridScene(), Algorithm: kdtree.AlgoInPlace,
		Search: harness.SearchNelderMead, Workers: 4,
		Width: 32, Height: 24, MaxIterations: 6, Seed: 7,
	})
	if res.AbortedBuilds != 1 || res.FallbackFrames != 1 {
		t.Fatalf("AbortedBuilds=%d FallbackFrames=%d, want 1/1", res.AbortedBuilds, res.FallbackFrames)
	}
	if len(res.Frames) != 6 {
		t.Fatalf("run recorded %d frames, want 6 — an abort must not shorten the run", len(res.Frames))
	}
	for i, f := range res.Frames {
		if want := i == 0; f.Aborted != want {
			t.Errorf("frame %d Aborted=%v, want %v", i, f.Aborted, want)
		}
		if f.Total <= 0 || f.Build <= 0 {
			t.Errorf("frame %d has non-positive timings: %+v", i, f)
		}
	}
}

// TestHarnessStaticDeadlineFallback: a stalled build against a static
// BuildGuard deadline aborts, falls back, and the run recovers.
func TestHarnessStaticDeadlineFallback(t *testing.T) {
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteBuildNode, Index: -1, Kind: faultinject.KindDelay,
		Delay: 300 * time.Millisecond, Count: 1,
	})
	defer in.Deactivate()
	res := harness.Run(harness.RunConfig{
		Scene: gridScene(), Algorithm: kdtree.AlgoNodeLevel,
		Search: harness.SearchFixed, Workers: 4,
		Width: 32, Height: 24, MaxIterations: 3,
		// Far above any healthy build of the 288-triangle grid — even with
		// race instrumentation — and far below the injected stall, so only
		// the faulted frame can abort.
		BuildGuard: kdtree.Guard{Deadline: 75 * time.Millisecond},
	})
	if res.AbortedBuilds != 1 || res.FallbackFrames != 1 {
		t.Fatalf("AbortedBuilds=%d FallbackFrames=%d, want 1/1", res.AbortedBuilds, res.FallbackFrames)
	}
	if !res.Frames[0].Aborted || res.Frames[1].Aborted || res.Frames[2].Aborted {
		t.Fatalf("abort flags wrong: %+v", res.Frames)
	}
}

// TestHarnessWatchdogDeadline drives the incumbent-derived watchdog: frame 0
// (no incumbent) absorbs a 100ms stall and sets the incumbent; with
// DeadlineFactor 0.25 every later build gets a deadline far below the stall,
// so frames 1+ abort via the watchdog and render from the fallback.
func TestHarnessWatchdogDeadline(t *testing.T) {
	in := faultinject.Activate(faultinject.Fault{
		// Index 0 pins the stall to the first node visit of every build
		// (ordinals reset per build), including the unguarded fallbacks.
		Site: faultinject.SiteBuildNode, Index: 0, Kind: faultinject.KindDelay,
		Delay: 100 * time.Millisecond,
	})
	defer in.Deactivate()
	res := harness.Run(harness.RunConfig{
		Scene: gridScene(), Algorithm: kdtree.AlgoNodeLevel,
		Search: harness.SearchFixed, Workers: 4,
		Width: 32, Height: 24, MaxIterations: 3,
		DeadlineFactor: 0.25,
	})
	if res.Frames[0].Aborted {
		t.Fatalf("frame 0 aborted; the watchdog must stay off until an incumbent exists")
	}
	if res.AbortedBuilds != 2 || res.FallbackFrames != 2 {
		t.Fatalf("AbortedBuilds=%d FallbackFrames=%d, want 2/2", res.AbortedBuilds, res.FallbackFrames)
	}
	if !res.Frames[1].Aborted || !res.Frames[2].Aborted {
		t.Fatalf("watchdog did not abort the stalled frames: %+v", res.Frames)
	}
}

// TestHarnessExtremeGrainVectorAbortRecover is the PR 8 guard-interaction
// drill: the run starts from a deliberately extreme scheduling vector (max
// scatter grain, min bin grain, full split bias) while a Count-budgeted
// stall at the parallel-chunk probe trips the static deadline. The guarded
// pipeline must turn the stall into one censored, fallback-rendered frame,
// the tuner must keep cycling (abort → penalty sample → next probe), and
// once the fault budget is spent every remaining frame must build and
// render normally under the tuned vector.
func TestHarnessExtremeGrainVectorAbortRecover(t *testing.T) {
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteParallelChunk, Index: -1, Kind: faultinject.KindDelay,
		Delay: 300 * time.Millisecond, Count: 1,
	})
	defer in.Deactivate()

	base := kdtree.BaseConfig(kdtree.AlgoInPlace)
	base.ScatterGrain = 65536 // one chunk per node: maximally serial
	base.BinGrain = 512       // maximally eager binned fan-out
	base.SplitBias = 3        // full budget pushed into within-node width
	res := harness.Run(harness.RunConfig{
		Scene: gridScene(), Algorithm: kdtree.AlgoInPlace, Base: base,
		Search: harness.SearchNelderMead, Workers: 4,
		Width: 32, Height: 24, MaxIterations: 6, Seed: 9,
		// Same margins as TestHarnessStaticDeadlineFallback: healthy builds
		// (race-instrumented included) finish well under the deadline, the
		// injected stall lands well over it.
		BuildGuard: kdtree.Guard{Deadline: 75 * time.Millisecond},
	})
	if res.AbortedBuilds != 1 || res.FallbackFrames != 1 {
		t.Fatalf("AbortedBuilds=%d FallbackFrames=%d, want 1/1", res.AbortedBuilds, res.FallbackFrames)
	}
	if len(res.Frames) != 6 {
		t.Fatalf("run recorded %d frames, want 6 — the abort must not shorten the run", len(res.Frames))
	}
	for i, f := range res.Frames {
		if want := i == 0; f.Aborted != want {
			t.Errorf("frame %d Aborted=%v, want %v", i, f.Aborted, want)
		}
		if f.Total <= 0 {
			t.Errorf("frame %d not rendered: %+v", i, f)
		}
		if len(f.Params) != len(res.ParamNames) {
			t.Errorf("frame %d records %d params, want the full vector of %d", i, len(f.Params), len(res.ParamNames))
		}
	}
	if len(res.TunedParams) != len(res.ParamNames) {
		t.Fatalf("recovered run reports %d tuned params, want %d: %v",
			len(res.TunedParams), len(res.ParamNames), res.TunedParams)
	}
	if res.BestTotal <= 0 {
		t.Fatalf("recovered run has no steady-state frame time: %+v", res.BestTotal)
	}
}
