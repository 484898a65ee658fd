package kdtree

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// allAlgorithms is every builder BuildGuarded dispatches, paper variants and
// extensions alike.
var allAlgorithms = []Algorithm{
	AlgoNodeLevel, AlgoNested, AlgoInPlace, AlgoLazy, AlgoMedian,
}

// abortCause builds with the guard and requires a *BuildAborted with the
// expected cause.
func abortCause(t *testing.T, b *Builder, a Algorithm, tris []vecmath.Triangle, g Guard, want AbortCause) *BuildAborted {
	t.Helper()
	tree, err := b.BuildGuarded(tris, testConfig(a), g)
	if err == nil {
		t.Fatalf("%v: guard %+v did not abort (tree %d nodes)", a, g, tree.NumNodes())
	}
	var ba *BuildAborted
	if !errors.As(err, &ba) {
		t.Fatalf("%v: error is %T, want *BuildAborted", a, err)
	}
	if ba.Cause != want {
		t.Fatalf("%v: abort cause %v, want %v", a, ba.Cause, want)
	}
	if ba.Algorithm != a {
		t.Errorf("%v: BuildAborted.Algorithm = %v", a, ba.Algorithm)
	}
	if tree != nil {
		t.Errorf("%v: aborted build returned non-nil tree", a)
	}
	return ba
}

func TestBuildGuardedZeroGuardMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	tris := randomTriangles(r, 3000, 10, 0.2)
	for _, a := range allAlgorithms {
		want := NewBuilder().Build(tris, testConfig(a))
		got, err := NewBuilder().BuildGuarded(tris, testConfig(a), Guard{})
		if err != nil {
			t.Fatalf("%v: zero-guard build aborted: %v", a, err)
		}
		if err := sameTree(want, got); err != nil {
			t.Errorf("%v: guarded tree differs from plain build: %v", a, err)
		}
	}
}

func TestGuardMaxDepthAborts(t *testing.T) {
	r := rand.New(rand.NewSource(502))
	tris := randomTriangles(r, 4000, 10, 0.2)
	for _, a := range allAlgorithms {
		abortCause(t, NewBuilder(), a, tris, Guard{MaxDepth: 1}, AbortDepth)
	}
}

func TestGuardMaxArenaBytesAborts(t *testing.T) {
	r := rand.New(rand.NewSource(503))
	tris := randomTriangles(r, 4000, 10, 0.2)
	for _, a := range allAlgorithms {
		// 4000 items alone are two orders of magnitude past this budget, so
		// the very first memory check trips.
		abortCause(t, NewBuilder(), a, tris, Guard{MaxArenaBytes: 1 << 10}, AbortMemory)
	}
	// At its base R (4096) the lazy builder suspends the whole 4000-item
	// root, so only the breadth-first level array ever holds items: the
	// ceiling must count it.
	cfg := BaseConfig(AlgoLazy)
	cfg.Workers = 4
	_, err := NewBuilder().BuildGuarded(tris, cfg, Guard{MaxArenaBytes: 1 << 10})
	var ba *BuildAborted
	if !errors.As(err, &ba) || ba.Cause != AbortMemory {
		t.Fatalf("lazy at base R = %d: err = %v, want a memory abort", cfg.R, err)
	}
}

func TestGuardDeadlineAborts(t *testing.T) {
	r := rand.New(rand.NewSource(504))
	tris := randomTriangles(r, 40000, 10, 0.2)
	for _, a := range allAlgorithms {
		// A 1ns deadline expires before the build's first node finishes; a
		// 40k-triangle build takes milliseconds.
		abortCause(t, NewBuilder(), a, tris, Guard{Deadline: time.Nanosecond}, AbortDeadline)
	}
}

// TestPostAbortRebuildIdentical is the acceptance criterion of the guarded
// design: after any abort, the same Builder's next build must be
// bitwise-identical to a fresh Builder's — no arena state can leak across.
func TestPostAbortRebuildIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	tris := randomTriangles(r, 5000, 10, 0.2)
	for _, a := range allAlgorithms {
		var fresh bytes.Buffer
		if err := NewBuilder().Build(tris, testConfig(a)).Serialize(&fresh); err != nil {
			t.Fatalf("%v: serialize: %v", a, err)
		}

		b := NewBuilder()
		b.Build(tris, testConfig(a)) // warm the arenas
		// Abort twice through different causes to disturb the arenas
		// mid-build in different phases.
		abortCause(t, b, a, tris, Guard{MaxDepth: 2}, AbortDepth)
		abortCause(t, b, a, tris, Guard{MaxArenaBytes: 1 << 10}, AbortMemory)

		rebuilt := b.Build(tris, testConfig(a))
		if err := rebuilt.Validate(); err != nil {
			t.Fatalf("%v: post-abort tree invalid: %v", a, err)
		}
		var got bytes.Buffer
		if err := rebuilt.Serialize(&got); err != nil {
			t.Fatalf("%v: serialize: %v", a, err)
		}
		if !bytes.Equal(fresh.Bytes(), got.Bytes()) {
			t.Errorf("%v: post-abort rebuild is not bitwise-identical to a fresh build (%d vs %d bytes)",
				a, fresh.Len(), got.Len())
		}
	}
}

// TestGuardedSteadyStateAllocs: arming a full guard (deadline timer, depth,
// memory ceiling) must not break the pooled-arena allocation budget.
func TestGuardedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	if buildChecks {
		t.Skip("the parallelcheck invariant layer allocates per dispatch; counts are meaningless under -tags parallelcheck")
	}
	const budget = 32.0
	r := rand.New(rand.NewSource(42))
	tris := randomTriangles(r, 4000, 10, 0.2)
	g := Guard{Deadline: time.Hour, MaxDepth: 64, MaxArenaBytes: 1 << 30}
	for _, algo := range Algorithms {
		cfg := BaseConfig(algo)
		cfg.Workers = 1
		cfg.S = 1
		b := NewBuilder()
		mustBuild := func() {
			if _, err := b.BuildGuarded(tris, cfg, g); err != nil {
				t.Fatalf("%v: guarded build aborted: %v", algo, err)
			}
		}
		mustBuild()
		mustBuild()
		avg := testing.AllocsPerRun(5, mustBuild)
		if avg > budget {
			t.Errorf("%v: guarded steady-state rebuild allocates %.1f objects, budget %.0f", algo, avg, budget)
		}
	}
}

func TestBuildAbortedError(t *testing.T) {
	wp := &parallel.WorkerPanic{Chunk: 2, Value: "boom"}
	ba := &BuildAborted{Cause: AbortWorkerPanic, Algorithm: AlgoNested, Panic: wp}
	var gotWP *parallel.WorkerPanic
	if !errors.As(ba, &gotWP) || gotWP != wp {
		t.Errorf("errors.As did not surface the contained WorkerPanic")
	}
	if ba.Error() == "" || (&BuildAborted{Cause: AbortDeadline}).Error() == "" {
		t.Errorf("empty error strings")
	}
	for c := AbortNone; c <= AbortWorkerPanic; c++ {
		if c.String() == "" {
			t.Errorf("AbortCause(%d) has empty String", c)
		}
	}
	if got := AbortCause(99).String(); got != "AbortCause(99)" {
		t.Errorf("unknown cause String = %q", got)
	}
}

// TestGuardDeadlineStaleTimer: a deadline from build N must never abort
// build N+1 — the generation check defuses the stale fire.
func TestGuardDeadlineStaleTimer(t *testing.T) {
	r := rand.New(rand.NewSource(506))
	tris := randomTriangles(r, 500, 10, 0.2)
	b := NewBuilder()
	for i := 0; i < 50; i++ {
		// A deadline slightly above the tiny build time: the timer usually
		// outlives the build and fires (stale) during the next one.
		if _, err := b.BuildGuarded(tris, testConfig(AlgoNodeLevel), Guard{Deadline: 500 * time.Microsecond}); err != nil {
			// A genuine in-build expiry is legal on a loaded machine; only a
			// *systematic* failure would indicate stale fires. Tolerate
			// sporadic aborts.
			continue
		}
	}
	// After all those armed-and-disarmed timers, an unguarded build must
	// succeed — any stale fire into the armed guard would abort it.
	for i := 0; i < 20; i++ {
		tree, err := b.BuildGuarded(tris, testConfig(AlgoNodeLevel), Guard{})
		if err != nil {
			t.Fatalf("stale deadline aborted an unbounded build: %v", err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("tree invalid: %v", err)
		}
	}
}
