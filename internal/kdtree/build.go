package kdtree

import (
	"kdtune/internal/faultinject"
	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// Build constructs an SAH kD-tree over tris with the given configuration,
// dispatching to the algorithm selected in cfg. The triangle slice is
// retained by reference; degenerate triangles are kept in leaves (they are
// harmless: intersection tests reject them) but contribute bounds like any
// other primitive only if finite.
//
// Build is the convenience wrapper over a fresh Builder; frame loops that
// rebuild every frame should retain a Builder and call its Build method so
// all construction scratch is reused.
func Build(tris []vecmath.Triangle, cfg Config) *Tree {
	return NewBuilder().Build(tris, cfg)
}

// item pairs a triangle index with the triangle's bounds restricted to the
// node currently holding it. Builders thread []item through the recursion
// so each partition step can reuse the already-narrowed boxes.
type item struct {
	tri    int32
	bounds vecmath.AABB
}

// buildCtx is the per-build shared state: immutable inputs plus the task
// pool, statistics counters and the owning Builder (arena source and abort
// guard; every build arms the guard).
type buildCtx struct {
	tris     []vecmath.Triangle
	cfg      Config
	params   sah.Params
	pool     *parallel.Pool
	counters buildCounters
	spawnCap int // recursion depth below which subtree tasks are spawned
	b        *Builder
}

// rootItems computes the world bounds and the initial item list (skipping
// triangles without finite bounds). The list is carved off a's item stack
// and lives for the whole build.
func (c *buildCtx) rootItems(a *arena) ([]item, vecmath.AABB) {
	return c.rootItemsInto(a.allocItems(len(c.tris))[:0])
}

// rootItemsInto is rootItems appending into a caller-provided buffer (the
// breadth-first builders keep root items in their ping-pong level arrays
// rather than on an arena stack).
func (c *buildCtx) rootItemsInto(dst []item) ([]item, vecmath.AABB) {
	items := dst
	bounds := vecmath.EmptyAABB()
	for i, tr := range c.tris {
		b := tr.Bounds()
		if !b.Min.IsFinite() || !b.Max.IsFinite() {
			continue
		}
		items = append(items, item{tri: int32(i), bounds: b})
		bounds = bounds.Union(b)
	}
	return items, bounds
}

// makeLeaf emits a leaf into the arena and records statistics.
func (c *buildCtx) makeLeaf(a *arena, items []item, depth int) {
	if faultinject.Active() {
		faultinject.Check(faultinject.SiteBuildLeaf, int(c.b.guard.leafSeq.Add(1))-1)
	}
	a.emitLeaf(items)
	c.counters.noteLeaf(len(items), depth)
}

// makeDeferred emits a suspended node (lazy builder).
func (c *buildCtx) makeDeferred(a *arena, items []item, bounds vecmath.AABB, depth int) {
	a.emitDeferred(items, bounds)
	c.counters.noteDeferred(depth)
}

// childBounds returns the bounds of item it inside child, a half of the
// node holding it split along axis, either by re-clipping the source
// triangle (perfect splits) or by box intersection. The intersection only
// narrows the extent along axis: the child shares every other face with
// the node, and an item's box is always its own intersection with the node
// holding it (the root's with the union of all boxes), which intersecting
// with the node again leaves unchanged, bit for bit.
func (c *buildCtx) childBounds(it item, child vecmath.AABB, axis vecmath.Axis) (vecmath.AABB, bool) {
	if c.cfg.UseClipping {
		return vecmath.ClipTriangleBounds(c.tris[it.tri], child)
	}
	b := it.bounds
	lo := max(b.Min.Axis(axis), child.Min.Axis(axis))
	hi := min(b.Max.Axis(axis), child.Max.Axis(axis))
	b.Min = b.Min.SetAxis(axis, lo)
	b.Max = b.Max.SetAxis(axis, hi)
	return b, !(hi < lo)
}

// partitionItems splits items across the two child boxes of the plane
// {axis = pos}. Primitives overlapping both sides are duplicated (the
// (Nl+Nr−Nb)·CB term of equation 1); primitives lying exactly on the plane
// go left. The child lists are carved off a's item stack: a cheap counting
// pass sizes the windows exactly (the side tests are repeated without the
// childBounds narrowing, which can only drop items, so the counts are safe
// upper bounds — the SAH's NL/NR are not, since the sweep may count planar
// primitives on the other side).
//
// The caller brackets the call with markItems/releaseItems around the child
// recursion.
func (c *buildCtx) partitionItems(a *arena, items []item, axis vecmath.Axis, pos float64, lb, rb vecmath.AABB) (left, right []item) {
	var nl, nr int
	for i := range items {
		lo := items[i].bounds.Min.Axis(axis)
		hi := items[i].bounds.Max.Axis(axis)
		if lo < pos || (lo == hi && lo == pos) {
			nl++
		}
		if hi > pos {
			nr++
		}
	}
	left = a.allocItems(nl)[:0]
	right = a.allocItems(nr)[:0]
	for _, it := range items {
		lo := it.bounds.Min.Axis(axis)
		hi := it.bounds.Max.Axis(axis)
		if lo < pos || (lo == hi && lo == pos) {
			if b, ok := c.childBounds(it, lb, axis); ok {
				left = append(left, item{it.tri, b})
			}
		}
		if hi > pos {
			if b, ok := c.childBounds(it, rb, axis); ok {
				right = append(right, item{it.tri, b})
			}
		}
	}
	return left, right
}
