package kdtree

import (
	"math"

	"kdtune/internal/vecmath"
)

// Hit describes the closest ray-triangle intersection found by Intersect.
type Hit struct {
	T    float64 // parametric distance along the ray (units of |Dir|)
	Tri  int     // index into Tree.Triangles()
	U, V float64 // barycentric coordinates of the hit point
}

// traversalStackDepth bounds the explicit traversal stack. kD-trees built
// with the default depth cap never exceed ~64 levels; the stack grows
// dynamically past this only in pathological cases.
const traversalStackDepth = 64

// stackEntry is a postponed far-child visit.
type stackEntry struct {
	node       int32
	tMin, tMax float64
}

// boundarySlack widens the tSplit-vs-interval comparisons during traversal.
// The interval endpoints and tSplit are rounded independently (adjacent
// split planes round on their own, and the AABB entry clip is a separate
// computation), so orderings that hold in exact arithmetic can invert by a
// few ulps. Without the slack, a cell the ray only grazes at a boundary
// point can be skipped outright — the differential ray oracle caught a
// planar triangle lying exactly on a split plane whose hit was lost because
// tSplit landed 1 ulp below curMin. The slack is relative (~45 ulps), far
// below any geometric feature size, and only ever causes a few extra node
// visits right at cell boundaries.
const boundarySlack = 1e-14

// splitSlack runs once per inner node for every ray, so it uses the builtin
// max, which is inlined, where math.Max is an assembly call. The two agree
// bit for bit except on (±Inf, NaN), where the builtin gives NaN and
// math.Max +Inf. The slack only ever reaches curMax+slack and curMin-slack,
// and there each pair gives NaN both ways or, under math.Max, +Inf above or
// -Inf below, which no tSplit passes, so every comparison comes out the
// same.
func splitSlack(curMin, curMax float64) float64 {
	return boundarySlack * max(math.Abs(curMin), math.Abs(curMax))
}

// Intersect finds the closest intersection of r with the scene in the
// parametric interval (tMin, tMax). It is safe for concurrent use; on lazy
// trees the first ray to reach a suspended node expands it (all other rays
// block on that node until the subtree exists).
//
// The traversal is the standard front-to-back kD-tree walk (Ericson, RTCD
// pp. 319–321): descend towards the near child, push the far child with its
// clipped parametric interval, and terminate as soon as a hit closer than
// the entry distance of the next pending subtree is known. Split distances
// are computed with the ray's precomputed reciprocal direction (one multiply
// per inner node instead of a divide), matching the slab clip exactly.
func (t *Tree) Intersect(r vecmath.Ray, tMin, tMax float64) (Hit, bool) {
	inv := r.EffInvDir()
	t0, t1, ok := t.bounds.IntersectRayInv(r.Origin, r.Dir, inv, tMin, tMax)
	if !ok {
		return Hit{}, false
	}
	return t.intersectRange(r, inv, t0, t1, tMin, tMax)
}

// intersectRange walks the tree over the traversal interval [curMin,
// curMax] (already clipped to the tree bounds); candidate hits are accepted
// anywhere in the caller's original open interval (tMin, tMax), which
// matters for triangles that poke out of the node being traversed and for
// flat scenes whose bounds have zero extent.
func (t *Tree) intersectRange(r vecmath.Ray, inv vecmath.Vec3, curMin, curMax, tMin, tMax float64) (Hit, bool) {
	h, ok := t.intersectFrom(r, inv, t.root, curMin, curMax, tMin, tMax, Hit{T: math.Inf(1)}, false)
	if !ok {
		return Hit{}, false
	}
	return h, true
}

// intersectFrom is the scalar traversal core, parameterised on the start
// node and the running best hit so packet traversal can demote a single
// lane mid-walk: a demoted lane resumes here at the divergent node with its
// current interval and best, which continues the walk bitwise-identically
// to a ray that had been scalar from the start. The returned pair is the
// threaded (best, found) state — the caller decides whether an un-found
// Hit{T: +Inf} sentinel should be zeroed.
//
//kdlint:hotpath
func (t *Tree) intersectFrom(r vecmath.Ray, inv vecmath.Vec3, start int32, curMin, curMax, tMin, tMax float64, best Hit, found bool) (Hit, bool) {
	var stackArr [traversalStackDepth]stackEntry
	stack := stackArr[:0]

	// Unpack the ray into axis-indexable form once: the inner-node loop then
	// reads its per-axis components with a single indexed load.
	org := [3]float64{r.Origin.X, r.Origin.Y, r.Origin.Z}
	dir := [3]float64{r.Dir.X, r.Dir.Y, r.Dir.Z}
	idir := [3]float64{inv.X, inv.Y, inv.Z}

	node := start

	for {
		if found && best.T < curMin {
			// This subtree lies entirely beyond the known closest hit —
			// skip it and move to the next pending one. The stack is NOT
			// monotone in tMin (an in-plane graze pushes the far child
			// with the full parent interval, so a near entry can sit below
			// a farther one), so breaking out entirely here would abandon
			// closer pending subtrees — a differential-oracle finding on a
			// z-symmetric scene with a ray lying exactly in the symmetry
			// plane.
			if len(stack) == 0 {
				break
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			node, curMin, curMax = top.node, top.tMin, top.tMax
			continue
		}
		n := t.nodes[node]
		switch n.kind() {
		case kindInner:
			axis := n.axis()
			o := org[axis]
			d := dir[axis]

			near, far := node+1, n.right()
			if o > n.pos || (o == n.pos && d < 0) {
				near, far = far, near
			}

			if d == 0 {
				if o == n.pos {
					// The ray lies exactly in the split plane: it grazes
					// the boundary faces of BOTH children, and planar
					// primitives on the plane live in only one of them.
					//kdlint:allow hotpath.alloc stack spills past the 64-entry stackArr only beyond the builder's depth cap; steady state never grows
					stack = append(stack, stackEntry{far, curMin, curMax})
				}
				// Otherwise the ray stays strictly on the near side.
				node = near
				continue
			}
			tSplit := (n.pos - o) * idir[axis]
			// Boundary comparisons carry a conservative slack: a hit
			// exactly on the split plane (tSplit == curMin or curMax) lies
			// in the degenerate interval of one child, planar primitives
			// live in exactly one of them, and independent rounding can
			// push tSplit a few ulps outside the interval — both children
			// must be visited or the hit is lost (found by differential
			// testing; see boundarySlack).
			slack := splitSlack(curMin, curMax)
			switch {
			case tSplit > curMax+slack || tSplit < 0:
				node = near
			case tSplit < curMin-slack:
				node = far
			default:
				//kdlint:allow hotpath.alloc stack spills past the 64-entry stackArr only beyond the builder's depth cap; steady state never grows
				stack = append(stack, stackEntry{far, tSplit, curMax})
				node = near
				curMax = tSplit
			}
			continue

		case kindLeaf:
			// Leaf candidates stream from the SoA layout: three contiguous
			// precomputed-edge arrays in leaf-reference order (see triSoA);
			// bitwise identical to testing t.tris[leafTris[i]] directly.
			for i := n.triStart(); i < n.triStart()+n.triCount(); i++ {
				if th, u, v, hit := vecmath.IntersectRayPre(&t.soa.a[i], &t.soa.e1[i], &t.soa.e2[i], &r.Origin, &r.Dir, tMin, tMax); hit && th < best.T {
					best = Hit{T: th, Tri: int(t.leafTris[i]), U: u, V: v}
					found = true
				}
			}

		case kindDeferred:
			d := &t.deferred[n.deferredIdx()]
			sub := t.expandDeferred(d)
			if h, hit := sub.intersectRange(r, inv, curMin, curMax, tMin, tMax); hit && h.T < best.T {
				best = h
				found = true
			}
		}

		// Pop the next pending subtree.
		if len(stack) == 0 {
			break
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, curMin, curMax = top.node, top.tMin, top.tMax
	}
	return best, found
}

// Occluded reports whether any triangle blocks r within (tMin, tMax) — the
// any-hit query used for shadow rays. It shares the traversal of Intersect
// but exits on the first hit.
func (t *Tree) Occluded(r vecmath.Ray, tMin, tMax float64) bool {
	inv := r.EffInvDir()
	t0, t1, ok := t.bounds.IntersectRayInv(r.Origin, r.Dir, inv, tMin, tMax)
	if !ok {
		return false
	}
	return t.occludedRange(r, inv, t0, t1, tMin, tMax)
}

func (t *Tree) occludedRange(r vecmath.Ray, inv vecmath.Vec3, curMin, curMax, tMin, tMax float64) bool {
	return t.occludedFrom(r, inv, t.root, curMin, curMax, tMin, tMax)
}

// occludedFrom is the any-hit traversal core, parameterised on the start
// node for the same reason as intersectFrom: packet lanes demoted at a
// divergent inner node finish the subtree here.
//
//kdlint:hotpath
func (t *Tree) occludedFrom(r vecmath.Ray, inv vecmath.Vec3, start int32, curMin, curMax, tMin, tMax float64) bool {
	var stackArr [traversalStackDepth]stackEntry
	stack := stackArr[:0]
	node := start

	org := [3]float64{r.Origin.X, r.Origin.Y, r.Origin.Z}
	dir := [3]float64{r.Dir.X, r.Dir.Y, r.Dir.Z}
	idir := [3]float64{inv.X, inv.Y, inv.Z}

	for {
		n := t.nodes[node]
		switch n.kind() {
		case kindInner:
			axis := n.axis()
			o := org[axis]
			d := dir[axis]
			near, far := node+1, n.right()
			if o > n.pos || (o == n.pos && d < 0) {
				near, far = far, near
			}
			if d == 0 {
				if o == n.pos {
					// In-plane ray: grazes both children (see Intersect).
					//kdlint:allow hotpath.alloc stack spills past the 64-entry stackArr only beyond the builder's depth cap; steady state never grows
					stack = append(stack, stackEntry{far, curMin, curMax})
				}
				node = near
				continue
			}
			tSplit := (n.pos - o) * idir[axis]
			// Same boundary slack as Intersect (see boundarySlack).
			slack := splitSlack(curMin, curMax)
			switch {
			case tSplit > curMax+slack || tSplit < 0:
				node = near
			case tSplit < curMin-slack:
				node = far
			default:
				//kdlint:allow hotpath.alloc stack spills past the 64-entry stackArr only beyond the builder's depth cap; steady state never grows
				stack = append(stack, stackEntry{far, tSplit, curMax})
				node = near
				curMax = tSplit
			}
			continue

		case kindLeaf:
			for i := n.triStart(); i < n.triStart()+n.triCount(); i++ {
				if _, _, _, hit := vecmath.IntersectRayPre(&t.soa.a[i], &t.soa.e1[i], &t.soa.e2[i], &r.Origin, &r.Dir, tMin, tMax); hit {
					return true
				}
			}

		case kindDeferred:
			d := &t.deferred[n.deferredIdx()]
			sub := t.expandDeferred(d)
			if sub.occludedRange(r, inv, curMin, curMax, tMin, tMax) {
				return true
			}
		}

		if len(stack) == 0 {
			return false
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, curMin, curMax = top.node, top.tMin, top.tMax
	}
}

// expandDeferred builds the suspended subtree on first use. The once latch
// plays the role of the paper's OpenMP critical section: concurrent rays
// reaching the same node serialise here, every other node stays contention
// free. An expansion that panics re-raises the *parallel.WorkerPanic on the
// touching caller and leaves the node unexpanded, so the next touch retries
// it on a fresh Builder.
func (t *Tree) expandDeferred(d *deferredNode) *Tree {
	d.once.Do(func() {
		// Expand as one sweep-engine subtree on one worker; the node holds
		// fewer than R primitives by construction, so per-node parallelism
		// is not worth spawning (and rays are already parallel across
		// pixels). The
		// dedicated Builder is the expansion's per-tree scratch: the subtree
		// Tree borrows (and keeps alive) its storage.
		cfg := t.cfg
		cfg.Algorithm = AlgoNodeLevel
		cfg.Workers = 1
		d.sub.Store(mustBuild(NewBuilder().build(t.tris, cfg, Guard{}, d)))
	})
	return d.sub.Load()
}

// ExpandAll forces expansion of every suspended subtree. Used by validation
// and by benchmarks that want to charge full construction cost up front.
func (t *Tree) ExpandAll() {
	for i := range t.deferred {
		sub := t.expandDeferred(&t.deferred[i])
		sub.ExpandAll()
	}
}
