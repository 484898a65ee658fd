package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// TestLadderFallbackSingleflight pins that concurrent requests falling to
// the median rung join one in-flight fallback build through the e.fb latch
// instead of each running their own — the thundering-herd guard for fault
// conditions where every waiter of a failed fill lands on the ladder at once.
func TestLadderFallbackSingleflight(t *testing.T) {
	sc := testScene("ladder-sf", 1500)
	tris := sc.Triangles(0)
	pool := NewBuilderPool(2)
	c := newTreeCache(pool, NewMetrics())
	e := c.entry("k")
	cfg := kdtree.BaseConfig(kdtree.AlgoInPlace)

	// Hold the fallback latch as if another waiter owned the build.
	f := &fillState{gen: 0, done: make(chan struct{})}
	e.mu.Lock()
	e.fb = f
	e.mu.Unlock()

	type out struct {
		tree *CachedTree
		src  TreeSource
		err  error
	}
	const waiters = 4
	results := make(chan out, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			tr, src, err := c.ladder(context.Background(), e, func() []vecmath.Triangle { return tris }, cfg, kdtree.Guard{}, nil)
			results <- out{tr, src, err} //kdlint:noctx test goroutine reports into a results channel buffered to the waiter count
		}()
	}

	// While the latch is held, joiners must wait — not build their own trees.
	time.Sleep(50 * time.Millisecond) //kdlint:noctx deliberate settle: the test binary owns the clock, no request deadline applies
	if got := c.met.BuildsOK.Load() + c.met.BuildsAborted.Load(); got != 0 {
		t.Fatalf("joiners ran %d builds while the fallback latch was held, want 0", got)
	}

	// Publish an owner-built fallback tree, as fallbackFill does.
	mcfg := cfg
	mcfg.Algorithm = kdtree.AlgoMedian
	b := pool.Get()
	tree, err := b.BuildGuarded(tris, mcfg, kdtree.Guard{}) //kdlint:noctx reference build is intentionally unguarded; latch semantics, not deadlines, are under test
	if err != nil {
		t.Fatalf("owner build: %v", err)
	}
	ct := &CachedTree{Tree: tree, Gen: 0, Algo: kdtree.AlgoMedian, Fallback: true,
		pool: pool, builder: b, refs: 0}
	e.mu.Lock()
	e.cur = ct
	e.mu.Unlock()
	f.tree = ct
	e.mu.Lock()
	e.fb = nil
	e.mu.Unlock()
	close(f.done)

	for i := 0; i < waiters; i++ {
		r := <-results //kdlint:noctx joins the waiter goroutines above; every one sends exactly once
		if r.err != nil {
			t.Fatalf("waiter %d: %v", i, r.err)
		}
		if r.src != SourceFallback {
			t.Fatalf("waiter %d source = %v, want fallback", i, r.src)
		}
		if r.tree != ct {
			t.Fatalf("waiter %d got a different tree than the published fallback", i)
		}
		r.tree.Release()
	}
	if got := c.met.BuildsOK.Load() + c.met.BuildsAborted.Load(); got != 0 {
		t.Fatalf("joiners ran %d redundant builds, want 0", got)
	}
	if got := c.met.DegradedFallback.Load(); got != waiters {
		t.Fatalf("DegradedFallback = %d, want %d (one per served waiter)", got, waiters)
	}
}

// TestFallbackLostInstallRaceRetires pins that a median-fallback tree which
// loses the install race (the generation moved while it built) is retired,
// so the caller's Release returns its Builder to the pool instead of leaking
// the warm scratch to the garbage collector.
func TestFallbackLostInstallRaceRetires(t *testing.T) {
	sc := testScene("ladder-race", 1500)
	tris := sc.Triangles(0)
	pool := NewBuilderPool(1)
	c := newTreeCache(pool, NewMetrics())
	e := c.entry("k")
	cfg := kdtree.BaseConfig(kdtree.AlgoInPlace)

	// The generation moves (an Invalidate) after the fallback claimed its
	// latch at gen 0 but before it installs.
	c.Invalidate("k")

	f := &fillState{gen: 0, done: make(chan struct{})}
	e.mu.Lock()
	e.fb = f
	e.mu.Unlock()

	ct, src, err := c.fallbackFill(context.Background(), e, f, func() []vecmath.Triangle { return tris }, cfg, kdtree.Guard{}, nil)
	if err != nil {
		t.Fatalf("fallbackFill: %v", err)
	}
	if src != SourceFallback {
		t.Fatalf("source = %v, want fallback", src)
	}

	// The tree still serves this request, but it must not occupy the cache…
	e.mu.Lock()
	cur := e.cur
	e.mu.Unlock()
	if cur == ct {
		t.Fatal("stale-generation fallback installed as current")
	}

	// …and the last Release must return the Builder to the pool.
	ct.Release()
	if got := pool.Size(); got != 1 {
		t.Fatalf("pool size after Release = %d, want 1 (race-losing fallback must retire its Builder)", got)
	}
}

// TestCacheHitSkipsFrameTriangles pins that a cache hit never materialises
// the frame: on a dynamic scene every Triangles call allocates and
// transforms a whole frame, so Server.tree must look its memoised key up and
// hit the cache without one. A hit allocates less than one frame's triangle
// slice, and the key it returns is the frame's GeometryKey.
func TestCacheHitSkipsFrameTriangles(t *testing.T) {
	sc := scene.WoodDoll()
	if !sc.IsDynamic() {
		t.Fatal("WoodDoll is static; the probe needs a dynamic scene")
	}
	s := New(Config{Scenes: []*scene.Scene{sc}})
	const frame = 3
	algo := s.cfg.Algorithm
	ct, key, src, err := s.tree(context.Background(), sc, frame, algo)
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	ct.Release()
	if src != SourceBuilt {
		t.Fatalf("first request source = %v, want built", src)
	}
	if want := GeometryKey(sc.Triangles(frame), algo); key != want {
		t.Fatalf("key = %s, want the frame's GeometryKey %s", key, want)
	}

	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ct, _, src, err := s.tree(context.Background(), sc, frame, algo)
		if err != nil {
			t.Fatalf("hit %d: %v", i, err)
		}
		ct.Release()
		if src != SourceHit {
			t.Fatalf("hit %d source = %v, want hit", i, src)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	frameBytes := uint64(sc.NumTriangles()) * uint64(unsafe.Sizeof(vecmath.Triangle{}))
	t.Logf("cache hit allocates %d B; one frame's triangles are %d B", perCall, frameBytes)
	if perCall >= frameBytes {
		t.Fatalf("a cache hit allocates %d B, at least one frame's triangle slice (%d B)", perCall, frameBytes)
	}
}
