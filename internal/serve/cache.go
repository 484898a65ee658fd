package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kdtune/internal/faultinject"
	"kdtune/internal/kdtree"
	"kdtune/internal/vecmath"
)

// treeCache maps geometry to built kD-trees. Keys are geometry hashes (plus
// the build algorithm), so two scenes with identical triangles share a tree
// and a scene whose animation moved shows up as a different key. Each entry
// carries a generation counter: Invalidate bumps it, demoting the current
// tree to the "stale" rung of the degradation ladder, and the next request
// triggers a rebuild.
//
// Ownership: a Tree borrows its Builder's storage (valid only until that
// Builder's next build), so every cached tree owns the Builder that produced
// it. Rebuilds always take a *different* Builder from the pool and swap
// pointers under the entry lock; the displaced tree's Builder returns to the
// pool only once its reference count drains (see CachedTree.Release). The
// stale tree is therefore untouched by construction — a request served from
// it reads exactly the bytes the original build wrote, which is what makes
// the "stale generation is bitwise-identical" guarantee structural rather
// than probabilistic.
type treeCache struct {
	pool *BuilderPool
	met  *Metrics

	mu      sync.Mutex
	entries map[string]*cacheEntry

	fillSeq atomic.Int64 // faultinject ordinal for SiteServeCache
}

type cacheEntry struct {
	mu    sync.Mutex
	gen   uint64
	cur   *CachedTree // tree for the current generation, nil until built
	stale *CachedTree // newest surviving tree of an older generation
	fill  *fillState  // in-flight full-quality build for the current generation
	fb    *fillState  // in-flight median-fallback build (ladder singleflight)
}

// fillState is the singleflight latch for one in-flight build: concurrent
// requests for the same key wait on done (or their own context) instead of
// building duplicate trees.
type fillState struct {
	gen  uint64
	done chan struct{}
	tree *CachedTree // set before done closes on success
	err  error       // set before done closes on failure
}

// TreeSource says which rung of the ladder produced a tree.
type TreeSource uint8

const (
	SourceHit      TreeSource = iota // current generation, already cached
	SourceBuilt                      // built by this request
	SourceJoined                     // built by a concurrent request we waited on
	SourceStale                      // previous generation served after an aborted build
	SourceFallback                   // median-algorithm fallback after an aborted build
)

func (s TreeSource) String() string {
	switch s {
	case SourceHit:
		return "hit"
	case SourceBuilt:
		return "built"
	case SourceJoined:
		return "joined"
	case SourceStale:
		return "stale"
	case SourceFallback:
		return "fallback"
	}
	return "source(?)"
}

// Degraded reports whether the source is a rung below a fresh current-
// generation tree.
func (s TreeSource) Degraded() bool { return s == SourceStale || s == SourceFallback }

// CachedTree is a built tree plus the Builder whose storage it borrows.
// Requests traverse the tree between acquire and Release; the Builder goes
// back to the pool only when the tree has been retired (displaced from the
// cache) and the last reference dropped — before that, reusing the Builder
// would overwrite the live tree in place.
type CachedTree struct {
	Tree     *kdtree.Tree
	Gen      uint64
	Algo     kdtree.Algorithm
	Fallback bool  // built by the median fallback rung
	BuildNS  int64 // wall time of the build that produced it

	pool    *BuilderPool
	builder *kdtree.Builder

	mu      sync.Mutex
	refs    int
	retired bool
}

func (t *CachedTree) acquire() *CachedTree {
	t.mu.Lock()
	t.refs++
	t.mu.Unlock()
	return t
}

// Release drops the caller's reference. The last release of a retired tree
// returns its Builder to the pool.
func (t *CachedTree) Release() {
	t.mu.Lock()
	t.refs--
	free := t.retired && t.refs == 0
	t.mu.Unlock()
	if free {
		t.pool.Put(t.builder)
	}
}

// retire marks the tree displaced from the cache; the Builder is reclaimed
// now if no request holds it, or by the last Release otherwise.
func (t *CachedTree) retire() {
	t.mu.Lock()
	t.retired = true
	free := t.refs == 0
	t.mu.Unlock()
	if free {
		t.pool.Put(t.builder)
	}
}

func newTreeCache(pool *BuilderPool, met *Metrics) *treeCache {
	return &treeCache{pool: pool, met: met, entries: make(map[string]*cacheEntry)}
}

// GeometryKey hashes the triangle soup (FNV-64a over the float64 bit
// patterns, in index order) and the build algorithm into a cache key. Two
// byte-identical geometries collide deliberately; any moved vertex changes
// the key.
func GeometryKey(tris []vecmath.Triangle, algo kdtree.Algorithm) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range tris {
		t := &tris[i]
		for _, v := range [3]vecmath.Vec3{t.A, t.B, t.C} {
			put(v.X)
			put(v.Y)
			put(v.Z)
		}
	}
	return fmt.Sprintf("g%016x-%s", h.Sum64(), algo)
}

func (c *treeCache) entry(key string) *cacheEntry {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	return e
}

// Invalidate bumps the generation of key: the current tree (if any) becomes
// the stale rung and the next request rebuilds. Returns the new generation.
func (c *treeCache) Invalidate(key string) uint64 {
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++
	if e.cur != nil {
		if e.stale != nil {
			e.stale.retire()
		}
		e.stale = e.cur
		e.cur = nil
	}
	return e.gen
}

// Generation reports the entry's current generation (0 if never seen).
func (c *treeCache) Generation(key string) uint64 {
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// Get returns a referenced tree for key, walking the degradation ladder when
// the build cannot finish inside ctx: cached current generation → fresh
// build (joined with any concurrent identical build) → stale generation →
// median-fallback build on the same warm Builder → typed error. The caller
// must Release the returned tree. ctx only bounds this request's waiting and
// building; the returned tree may outlive it. tris materialises the
// geometry; only the builds call it, so a hit never does.
func (c *treeCache) Get(ctx context.Context, key string, tris func() []vecmath.Triangle, cfg kdtree.Config, base kdtree.Guard) (*CachedTree, TreeSource, error) {
	e := c.entry(key)

	for {
		e.mu.Lock()
		if e.cur != nil {
			t := e.cur.acquire()
			e.mu.Unlock()
			c.met.CacheHits.Add(1)
			return t, SourceHit, nil
		}
		if f := e.fill; f != nil {
			// Someone is building this generation; wait for them or for our
			// deadline, whichever first.
			e.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, 0, &Error{Status: 504, Code: "deadline", Msg: "deadline expired waiting for tree build"}
			}
			if f.err == nil {
				f.tree.mu.Lock()
				retired := f.tree.retired
				if !retired {
					f.tree.refs++
				}
				f.tree.mu.Unlock()
				if retired {
					continue // displaced between publish and acquire; retry
				}
				return f.tree, SourceJoined, nil
			}
			// The build we joined aborted: fall to the ladder below.
			return c.ladder(ctx, e, tris, cfg, base, nil)
		}
		// We are the builder for this generation.
		f := &fillState{gen: e.gen, done: make(chan struct{})}
		e.fill = f
		e.mu.Unlock()
		c.met.CacheMisses.Add(1)

		tree, err := c.fill(ctx, e, f, tris, cfg, base)
		if err == nil {
			return tree, SourceBuilt, nil
		}
		var warm *kdtree.Builder
		var ba *BuildAbortedError
		if asBuildAborted(err, &ba) {
			warm = ba.builder // aborted builds leave a drained, warm Builder
		}
		return c.ladder(ctx, e, tris, cfg, base, warm)
	}
}

// BuildAbortedError wraps kdtree.BuildAborted with the Builder it aborted
// on, so the ladder can retry the median fallback on the same warm scratch.
type BuildAbortedError struct {
	Aborted *kdtree.BuildAborted
	builder *kdtree.Builder
}

func (e *BuildAbortedError) Error() string { return e.Aborted.Error() }
func (e *BuildAbortedError) Unwrap() error { return e.Aborted }

func asBuildAborted(err error, out **BuildAbortedError) bool {
	ba, ok := err.(*BuildAbortedError)
	if ok {
		*out = ba
	}
	return ok
}

// fill runs the guarded build this request owns and publishes the outcome to
// every waiter. A panic anywhere inside (including an injected SiteServeCache
// panic) is published as a failure before re-raising, so waiters can never
// hang on an abandoned fill latch.
func (c *treeCache) fill(ctx context.Context, e *cacheEntry, f *fillState, tris func() []vecmath.Triangle, cfg kdtree.Config, base kdtree.Guard) (t *CachedTree, err error) {
	b := c.pool.Get()
	published := false
	publish := func(tree *CachedTree, ferr error) {
		f.tree, f.err = tree, ferr
		published = true
		e.mu.Lock()
		if e.fill == f {
			e.fill = nil
		}
		e.mu.Unlock()
		close(f.done)
	}
	defer func() {
		if !published {
			// Unwinding on a panic: release the latch (and the Builder — the
			// guarded build drains its arenas on any abort path) before the
			// panic continues to the handler's recover middleware.
			c.pool.Put(b)
			publish(nil, &Error{Status: 500, Code: "panic", Msg: "tree build panicked"})
		}
	}()

	if faultinject.Active() {
		faultinject.Check(faultinject.SiteServeCache, int(c.fillSeq.Add(1))-1)
	}

	start := time.Now()
	tree, berr := b.BuildGuarded(tris(), cfg, kdtree.GuardFromContext(ctx, base))
	if berr != nil {
		c.met.BuildsAborted.Add(1)
		// Keep the Builder out of the pool: the ladder's median fallback
		// reuses this warm scratch (BuildAbortedError.builder).
		wrapped := &BuildAbortedError{Aborted: berr.(*kdtree.BuildAborted), builder: b}
		publish(nil, wrapped)
		return nil, wrapped
	}
	c.met.BuildsOK.Add(1)
	ct := &CachedTree{
		Tree: tree, Gen: f.gen, Algo: cfg.Algorithm,
		BuildNS: time.Since(start).Nanoseconds(),
		pool:    c.pool, builder: b,
		refs: 1, // the caller's reference
	}
	c.install(e, ct)
	publish(ct, nil)
	return ct, nil
}

// install places a freshly built tree into the entry. If the generation
// moved while the build ran (an Invalidate raced it), the tree is already
// stale: it takes the stale rung instead of the current one.
func (c *treeCache) install(e *cacheEntry, ct *CachedTree) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ct.Gen == e.gen {
		if e.cur != nil {
			e.cur.retire()
		}
		e.cur = ct
		// A successful current-generation build supersedes the stale rung.
		if e.stale != nil {
			e.stale.retire()
			e.stale = nil
		}
		return
	}
	if e.stale != nil {
		e.stale.retire()
	}
	e.stale = ct
}

// ladder is everything below a failed build: serve the stale generation if
// one survives, else rebuild with the median algorithm (cheap, bounded — the
// same fallback the bench watchdog uses) on the warm Builder the abort left
// behind, else surface a typed error. The fallback build is singleflighted
// through its own fillState latch (e.fb): when a joined fill fails, every
// waiter lands here at once, and without the latch each would run a
// redundant median build — a thundering herd of exactly the expensive work
// fault conditions can least afford. warm may be nil when the failed build
// was joined rather than owned.
func (c *treeCache) ladder(ctx context.Context, e *cacheEntry, tris func() []vecmath.Triangle, cfg kdtree.Config, base kdtree.Guard, warm *kdtree.Builder) (*CachedTree, TreeSource, error) {
	putWarm := func() {
		if warm != nil {
			c.pool.Put(warm)
			warm = nil
		}
	}
	for {
		e.mu.Lock()
		if e.cur != nil {
			// A concurrent waiter's fallback (or a racing full-quality build)
			// landed while we fell: serve it rather than rebuilding.
			t := e.cur.acquire()
			e.mu.Unlock()
			putWarm()
			if t.Fallback {
				c.met.DegradedFallback.Add(1)
				return t, SourceFallback, nil
			}
			c.met.CacheHits.Add(1)
			return t, SourceHit, nil
		}
		if e.stale != nil {
			t := e.stale.acquire()
			e.mu.Unlock()
			putWarm()
			c.met.DegradedStale.Add(1)
			return t, SourceStale, nil
		}
		if f := e.fb; f != nil && f.gen == e.gen {
			// Another waiter already owns the fallback build; join it.
			e.mu.Unlock()
			putWarm()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, 0, &Error{Status: 504, Code: "deadline", Msg: "deadline expired waiting for fallback build"}
			}
			if f.err != nil {
				return nil, 0, f.err
			}
			f.tree.mu.Lock()
			retired := f.tree.retired
			if !retired {
				f.tree.refs++
			}
			f.tree.mu.Unlock()
			if retired {
				continue // displaced between publish and acquire; retry
			}
			c.met.DegradedFallback.Add(1)
			return f.tree, SourceFallback, nil
		}
		if ctx.Err() != nil {
			e.mu.Unlock()
			putWarm()
			return nil, 0, &Error{Status: 504, Code: "deadline", Msg: "deadline expired before fallback build"}
		}
		// We own the fallback build for this generation.
		f := &fillState{gen: e.gen, done: make(chan struct{})}
		e.fb = f
		e.mu.Unlock()
		return c.fallbackFill(ctx, e, f, tris, cfg, base, warm)
	}
}

// fallbackFill runs the median-algorithm rebuild this request owns and
// publishes the outcome to every ladder waiter joined on e.fb. Like fill, a
// panic releases the latch before unwinding so joiners can never hang.
func (c *treeCache) fallbackFill(ctx context.Context, e *cacheEntry, f *fillState, tris func() []vecmath.Triangle, cfg kdtree.Config, base kdtree.Guard, warm *kdtree.Builder) (t *CachedTree, src TreeSource, err error) {
	b := warm
	if b == nil {
		b = c.pool.Get()
	}
	published := false
	publish := func(tree *CachedTree, ferr error) {
		f.tree, f.err = tree, ferr
		published = true
		e.mu.Lock()
		if e.fb == f {
			e.fb = nil
		}
		e.mu.Unlock()
		close(f.done)
	}
	defer func() {
		if !published {
			c.pool.Put(b)
			publish(nil, &Error{Status: 500, Code: "panic", Msg: "fallback build panicked"})
		}
	}()

	mcfg := cfg
	mcfg.Algorithm = kdtree.AlgoMedian
	start := time.Now()
	tree, berr := b.BuildGuarded(tris(), mcfg, kdtree.GuardFromContext(ctx, base))
	if berr != nil {
		c.met.BuildsAborted.Add(1)
		c.pool.Put(b)
		aborted := &Error{Status: 503, Code: "build-aborted",
			Msg: fmt.Sprintf("build and median fallback both aborted: %v", berr)}
		publish(nil, aborted)
		return nil, 0, aborted
	}
	c.met.BuildsOK.Add(1)
	c.met.DegradedFallback.Add(1)
	ct := &CachedTree{
		Tree: tree, Gen: f.gen, Algo: kdtree.AlgoMedian, Fallback: true,
		BuildNS: time.Since(start).Nanoseconds(),
		pool:    c.pool, builder: b,
		refs: 1,
	}
	// The fallback tree is real and current-generation; cache it so the next
	// request hits instead of re-running the ladder. Cache ownership is the
	// un-retired state, not a reference count — a later successful
	// full-quality build (after faults clear) displaces it via install/retire.
	e.mu.Lock()
	installed := ct.Gen == e.gen && e.cur == nil
	if installed {
		e.cur = ct
	}
	e.mu.Unlock()
	publish(ct, nil)
	if !installed {
		// Lost the install race (generation moved, or a racing build landed
		// first): retire now so the caller's Release returns the warm Builder
		// to the pool instead of leaking it to the garbage collector.
		ct.retire()
	}
	return ct, SourceFallback, nil
}
