package kdtree

import (
	"sync"

	"kdtune/internal/vecmath"
)

// buildNodeLevel implements the node-level parallel algorithm of §IV-A: the
// Wald–Havran recursion, with the two child subtrees of an inner node
// handed to the task pool ("OpenMP tasks for every recursive call") while
// the recursion is shallower than the spawn budget derived from S. The
// whole tree is one sweep-engine subtree: the root sorts its events once.
func (c *buildCtx) buildNodeLevel() vecmath.AABB {
	a := &c.b.main
	items, bounds := c.rootItems(a)
	if len(items) == 0 {
		return vecmath.AABB{}
	}
	c.recurseSweep(a, items, evLists{}, bounds, 0, false)
	return bounds
}

// recurseSweep is the sweep engine's recursion. It emits the subtree over
// items into a, in depth-first pre-order (self, left subtree, right
// subtree) so the left child is always self+1. When children are built by
// spawned tasks they emit into private arenas that are grafted back in the
// same order, preserving both the layout and bitwise determinism across
// worker counts. The other builders enter it at their subtree roots with
// nil lists (see sweep.go); lazy applies the lazy builder's suspension rule
// at every node, as its breadth-first phase does.
func (c *buildCtx) recurseSweep(a *arena, items []item, ev evLists, bounds vecmath.AABB, depth int, lazy bool) {
	if c.checkAbort(depth) {
		return
	}
	if c.shouldDefer(lazy, len(items), depth) {
		c.makeDeferred(a, items, bounds, depth)
		return
	}
	if len(items) <= 1 || depth >= c.cfg.MaxDepth {
		c.makeLeaf(a, items, depth)
		return
	}
	imark, emark := a.markItems(), a.markEvents()
	if ev[vecmath.AxisX] == nil {
		// The subtree's first sweep. The sort dominates it; give the full
		// worker budget to the huge roots, where few subtree tasks exist.
		workers := 1
		if len(items) >= 32768 {
			workers = c.cfg.Workers
		}
		ev = c.sortedEvents(a, items, workers)
		if c.aborted() {
			a.releaseEvents(emark)
			return
		}
	}
	split, ok := c.sweepEvents(items, ev, bounds)
	if !ok || c.params.ShouldTerminate(len(items), split) {
		a.releaseEvents(emark)
		c.makeLeaf(a, items, depth)
		return
	}
	lb, rb := bounds.Split(split.Axis, split.Pos)
	left, right, lev, rev := c.splitEvents(a, items, ev, split, lb, rb)

	// Guard against degenerate splits that make no progress (all primitives
	// duplicated into both children with no empty-space gain): they would
	// recurse forever below the SAH's radar.
	if len(left) == len(items) && len(right) == len(items) {
		a.releaseEvents(emark)
		a.releaseItems(imark)
		c.makeLeaf(a, items, depth)
		return
	}

	c.counters.noteInner()
	self := a.emitInner(split.Axis, split.Pos)

	if depth < c.spawnCap {
		la, ra := c.b.getArena(), c.b.getArena()
		var wg sync.WaitGroup
		wg.Add(2)
		//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
		c.pool.Spawn(func() {
			defer wg.Done()
			c.recurseSweep(la, left, lev, lb, depth+1, lazy)
		})
		//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
		c.pool.Spawn(func() {
			defer wg.Done()
			c.recurseSweep(ra, right, rev, rb, depth+1, lazy)
		})
		wg.Wait()
		a.graft(la)
		a.patchRight(self, a.graft(ra))
		c.b.putArena(la)
		c.b.putArena(ra)
	} else {
		c.recurseSweep(a, left, lev, lb, depth+1, lazy)
		a.patchRight(self, int32(len(a.nodes)))
		c.recurseSweep(a, right, rev, rb, depth+1, lazy)
	}
	a.releaseEvents(emark)
	a.releaseItems(imark)
}
