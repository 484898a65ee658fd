package kdtree

import (
	"sync"

	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// Builder owns every byte of build scratch — item and event stacks, node and
// leaf-reference arenas, breadth-first frontier buffers, the worker pool —
// and reuses all of it across Build calls. In the paper's frame loop the
// tree is rebuilt every frame, so a retained Builder makes the steady state
// allocation-free where a fresh Build would re-allocate tens of thousands of
// nodes per frame.
//
// The Tree returned by Build borrows the Builder's storage: it is valid
// until the next Build (or BuildDeferred) call on the same Builder, which
// overwrites it in place. Callers that need overlapping trees use separate
// Builders (or the package-level Build, which allocates a fresh one).
//
// A Builder is not safe for concurrent Build calls, but the Tree it returns
// has the usual concurrency guarantees (read-only traversal plus serialised
// lazy expansion).
type Builder struct {
	ctx  buildCtx
	main arena
	tree Tree
	soa  triSoA         // backing for tree.soa, refilled in place per build
	defs []deferredNode // backing for tree.deferred, reused across builds

	pool        *parallel.Pool
	poolWorkers int

	// Free list of subtree-task arenas, shared by spawned tasks.
	arenaMu   sync.Mutex
	arenaFree []*arena

	bf bfScratch

	// Abort machinery (canceler, deadline timer, cause), reset per build.
	// Every build — guarded or not — runs with it armed so worker panics
	// are always contained and classified; see BuildGuarded.
	guard buildGuard
}

// NewBuilder returns an empty Builder. All storage is grown on first use
// and retained afterwards.
func NewBuilder() *Builder {
	return &Builder{}
}

// Build constructs the tree for tris under cfg, reusing all scratch from
// previous calls. See the Builder type comment for the storage lifetime.
//
// Build runs through the guarded machinery with no limits: a worker panic is
// drained and contained first (no detached goroutine keeps writing into the
// arenas), then re-raised on the caller as a *parallel.WorkerPanic — plain
// builds stay fail-loud. Callers that want an error instead use
// BuildGuarded.
func (b *Builder) Build(tris []vecmath.Triangle, cfg Config) *Tree {
	return mustBuild(b.build(tris, cfg, Guard{}, nil))
}

// mustBuild re-raises the abort of a limitless build, whose only abort cause
// is a worker panic, as that *parallel.WorkerPanic.
func mustBuild(t *Tree, err error) *Tree {
	if err != nil {
		ba := err.(*BuildAborted)
		if ba.Panic != nil {
			panic(ba.Panic)
		}
		panic(ba)
	}
	return t
}

// prepare resets the per-build state. Counter atomics are reset in place
// (they cannot be overwritten wholesale without copying locks).
func (b *Builder) prepare(tris []vecmath.Triangle, cfg Config) *buildCtx {
	b.main.reset()
	if b.pool == nil || b.poolWorkers != cfg.Workers {
		b.pool = parallel.NewPool(cfg.Workers)
		// Task panics become abort causes instead of crashing Wait; the
		// guard is a Builder field, so the handler survives pool reuse.
		b.pool.SetPanicHandler(b.guard.onWorkerPanic)
		b.poolWorkers = cfg.Workers
	}
	c := &b.ctx
	c.tris = tris
	c.cfg = cfg
	c.params = cfg.sahParams()
	c.pool = b.pool
	c.spawnCap = cfg.spawnDepth()
	c.b = b
	c.counters.reset()
	return c
}

// finish assembles the borrowed Tree view over the main arena.
func (b *Builder) finish(bounds vecmath.AABB, numTris int) *Tree {
	if len(b.main.nodes) == 0 {
		// Empty scene: a single empty leaf, zero bounds (matching the
		// historical flatten behaviour; stats count nothing).
		b.main.nodes = append(b.main.nodes, leafNode(0, 0))
	}
	t := &b.tree
	t.tris = b.ctx.tris
	t.bounds = bounds
	t.nodes = b.main.nodes       //kdlint:allow arena.store Tree borrows the main arena by documented contract: valid until the Builder's next Build
	t.leafTris = b.main.leafTris //kdlint:allow arena.store same borrow contract as nodes above
	b.soa.build(t.tris, t.leafTris)
	t.soa = b.soa
	t.root = 0
	t.cfg = b.ctx.cfg
	t.stats = b.ctx.counters.snapshot(b.ctx.cfg.Algorithm, numTris)

	b.defs = ensureLen(b.defs, len(b.main.defs))
	for i := range b.main.defs {
		d := &b.main.defs[i]
		dn := &b.defs[i]
		dn.once.done.Store(false)
		dn.bounds = d.bounds
		dn.tris = b.main.defTris[d.start : d.start+d.count : d.start+d.count]
		dn.sub.Store(nil)
	}
	t.deferred = b.defs
	return t
}

// getArena hands out a reset subtree arena, recycling finished ones. The
// arena inherits the main arena's live-byte counter so guarded memory
// accounting covers subtree tasks too.
func (b *Builder) getArena() *arena {
	b.arenaMu.Lock()
	if n := len(b.arenaFree); n > 0 {
		a := b.arenaFree[n-1]
		b.arenaFree = b.arenaFree[:n-1]
		b.arenaMu.Unlock()
		a.live = b.main.live
		return a
	}
	b.arenaMu.Unlock()
	return &arena{live: b.main.live}
}

// putArena returns a grafted (consumed) arena to the free list.
func (b *Builder) putArena(a *arena) {
	a.live = nil
	a.reset()
	b.arenaMu.Lock()
	b.arenaFree = append(b.arenaFree, a)
	b.arenaMu.Unlock()
}

// buildDeferred expands the suspended lazy node d as one sweep-engine
// subtree (the deferred node sorts its events once); it is the body build
// runs for a lazy expansion, so the expansion gets the same guard, panic
// containment and abort drain as any build. It returns the subtree bounds
// and its primitive count.
func (c *buildCtx) buildDeferred(d *deferredNode) (vecmath.AABB, int) {
	a := &c.b.main
	items := a.allocItems(len(d.tris))[:0]
	for _, ti := range d.tris {
		bb := c.tris[ti].Bounds().Intersect(d.bounds)
		if bb.IsEmpty() {
			// Can only happen for degenerate input; such triangles cannot
			// intersect rays inside this node anyway.
			continue
		}
		items = append(items, item{ti, bb})
	}
	c.recurseSweep(a, items, evLists{}, d.bounds, 0, false)
	return d.bounds, len(items)
}
