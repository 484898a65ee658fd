package kdtree

import (
	"math"
	"slices"
	"sync"

	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// AlgoSortOnce is the full O(N log N) construction of Wald & Havran ("On
// building fast kd-trees for ray tracing, and on doing that in O(N log N)",
// §4): candidate-plane events for all primitives and all three axes are
// generated and sorted ONCE; the recursion then classifies primitives
// against the chosen plane and splices the sorted event list into the
// children in linear time, never sorting again (except for the few
// re-clipped straddlers). The paper's node-level variant (§IV-A) uses the
// simpler per-node-sort formulation; this engine is the reference upgrade
// the same work describes, kept as a separate algorithm so the two can be
// benchmarked against each other (BenchmarkSortOnceVsPerNode).
//
// Subtrees parallelise exactly like the node-level builder: every node's
// state (slots, events, classification) is private, so tasks never share
// mutable data.
const AlgoSortOnce Algorithm = 101

// Event kinds and the per-slot classification of the splice step.
const (
	soEnd    uint8 = 0 // primitive extent ends at pos
	soPlanar uint8 = 1 // zero-extent primitive lies at pos
	soStart  uint8 = 2 // primitive extent starts at pos

	clsBoth  uint8 = 0 // straddles the plane: duplicated, events re-generated
	clsLeft  uint8 = 1 // entirely left: events spliced through
	clsRight uint8 = 2 // entirely right
)

// soEvent is one candidate plane: the endpoint of slot's clipped bounds
// along axis. Slots index the node's private item list, not global
// triangle ids, so sibling tasks never alias classification state.
type soEvent struct {
	pos  float64
	slot int32
	axis uint8
	kind uint8
}

// soLess orders events by (pos, axis, kind): the restriction to any single
// axis is then ordered by (pos, kind) with ends before planars before
// starts, which is what the sweep needs; grouping by (pos, axis) lets one
// pass evaluate all three axes.
func soLess(a, b soEvent) int {
	switch {
	case a.pos < b.pos:
		return -1
	case a.pos > b.pos:
		return 1
	}
	if a.axis != b.axis {
		return int(a.axis) - int(b.axis)
	}
	return int(a.kind) - int(b.kind)
}

// buildSortOnce is the entry point: generate + sort all events, recurse.
func (c *buildCtx) buildSortOnce() vecmath.AABB {
	a := &c.b.main
	items, bounds := c.rootItems(a)
	if len(items) == 0 {
		return vecmath.AABB{}
	}
	events := a.allocEvents(6 * len(items))[:0]
	for slot, it := range items {
		events = appendEvents(events, int32(slot), it.bounds)
	}
	parallel.SortFunc(c.canceler(), events, c.cfg.Workers, soLess)
	c.recurseSortOnce(a, items, events, bounds, 0)
	return bounds
}

// appendEvents emits the (up to six) events of one slot's bounds.
func appendEvents(dst []soEvent, slot int32, b vecmath.AABB) []soEvent {
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
		if lo == hi {
			dst = append(dst, soEvent{lo, slot, uint8(axis), soPlanar})
		} else {
			dst = append(dst,
				soEvent{lo, slot, uint8(axis), soStart},
				soEvent{hi, slot, uint8(axis), soEnd})
		}
	}
	return dst
}

// sweepEvents finds the best split with a single pass over the (sorted)
// event list, running the three per-axis sweeps simultaneously.
func (c *buildCtx) sweepEvents(events []soEvent, bounds vecmath.AABB, n int) (sah.Split, bool) {
	best := sah.Split{Cost: math.Inf(1)}
	found := false
	areaNode := bounds.SurfaceArea()
	if areaNode <= 0 || n == 0 {
		return best, false
	}
	var nl [3]int
	nr := [3]int{n, n, n}

	for i := 0; i < len(events); {
		pos, axis := events[i].pos, events[i].axis
		var pEnd, pPlanar, pStart int
		for i < len(events) && events[i].pos == pos && events[i].axis == axis && events[i].kind == soEnd {
			pEnd++
			i++
		}
		for i < len(events) && events[i].pos == pos && events[i].axis == axis && events[i].kind == soPlanar {
			pPlanar++
			i++
		}
		for i < len(events) && events[i].pos == pos && events[i].axis == axis && events[i].kind == soStart {
			pStart++
			i++
		}
		a := vecmath.Axis(axis)
		nr[axis] -= pEnd + pPlanar

		if pos > bounds.Min.Axis(a) && pos < bounds.Max.Axis(a) {
			l, r := bounds.Split(a, pos)
			al, ar := l.SurfaceArea(), r.SurfaceArea()
			cL := c.params.SplitCost(areaNode, al, ar, nl[axis]+pPlanar, nr[axis], n)
			cR := c.params.SplitCost(areaNode, al, ar, nl[axis], nr[axis]+pPlanar, n)
			cost, dl, dr := cL, pPlanar, 0
			if cR < cL {
				cost, dl, dr = cR, 0, pPlanar
			}
			if cost < best.Cost {
				best = sah.Split{Axis: a, Pos: pos, Cost: cost, NL: nl[axis] + dl, NR: nr[axis] + dr}
				found = true
			}
		}
		nl[axis] += pStart + pPlanar
	}
	return best, found
}

// recurseSortOnce is the splice recursion. Items and events are windows on
// the arena stacks; child windows are carved below them and released after
// both children have been emitted.
func (c *buildCtx) recurseSortOnce(a *arena, items []item, events []soEvent, bounds vecmath.AABB, depth int) {
	if c.checkAbort(depth) {
		return
	}
	if len(items) <= 1 || depth >= c.cfg.MaxDepth {
		c.makeLeaf(a, items, depth)
		return
	}
	split, ok := c.sweepEvents(events, bounds, len(items))
	if !ok || c.params.ShouldTerminate(len(items), split) {
		c.makeLeaf(a, items, depth)
		return
	}
	lb, rb := bounds.Split(split.Axis, split.Pos)

	// Classify each slot against the plane using only the chosen axis's
	// events (Wald–Havran's flag pass): default straddling, overridden by
	// events proving the primitive lies entirely on one side.
	a.cls = ensureLen(a.cls, len(items))
	cls := a.cls
	for i := range cls {
		cls[i] = clsBoth
	}
	for _, e := range events {
		if vecmath.Axis(e.axis) != split.Axis {
			continue
		}
		switch e.kind {
		case soEnd:
			if e.pos <= split.Pos {
				cls[e.slot] = clsLeft
			}
		case soStart:
			if e.pos >= split.Pos {
				cls[e.slot] = clsRight
			}
		case soPlanar:
			if e.pos <= split.Pos {
				cls[e.slot] = clsLeft // planar-on-plane goes left
			} else {
				cls[e.slot] = clsRight
			}
		}
	}

	// Size the child windows: item capacities from the classification
	// (straddlers may still drop during re-narrowing, so these are upper
	// bounds), event capacities from the per-side event census.
	var nlCap, nrCap int
	for _, cl := range cls {
		switch cl {
		case clsLeft:
			nlCap++
		case clsRight:
			nrCap++
		default:
			nlCap++
			nrCap++
		}
	}
	var celCap, cerCap int
	for _, e := range events {
		switch cls[e.slot] {
		case clsLeft:
			celCap++
		case clsRight:
			cerCap++
		}
	}

	imark := a.markItems()
	emark := a.markEvents()

	// Build child item lists and slot remaps. Straddlers are re-narrowed
	// (clip or box intersection per configuration); a straddler whose
	// narrowed half vanishes drops out of that child entirely.
	a.slotL = ensureLen(a.slotL, len(items))
	a.slotR = ensureLen(a.slotR, len(items))
	leftSlot, rightSlot := a.slotL, a.slotR
	leftItems := a.allocItems(nlCap)[:0]
	rightItems := a.allocItems(nrCap)[:0]
	leftNew := a.evNewL[:0]
	rightNew := a.evNewR[:0]

	for slot, it := range items {
		leftSlot[slot], rightSlot[slot] = -1, -1
		switch cls[slot] {
		case clsLeft:
			leftSlot[slot] = int32(len(leftItems))
			leftItems = append(leftItems, it)
		case clsRight:
			rightSlot[slot] = int32(len(rightItems))
			rightItems = append(rightItems, it)
		default: // straddler
			if b, ok := c.childBounds(it, lb); ok {
				ns := int32(len(leftItems))
				leftSlot[slot] = ns
				leftItems = append(leftItems, item{it.tri, b})
				leftNew = appendEvents(leftNew, ns, b)
			}
			if b, ok := c.childBounds(it, rb); ok {
				ns := int32(len(rightItems))
				rightSlot[slot] = ns
				rightItems = append(rightItems, item{it.tri, b})
				rightNew = appendEvents(rightNew, ns, b)
			}
		}
	}
	a.evNewL = leftNew[:0]
	a.evNewR = rightNew[:0]
	if len(leftItems) == len(items) && len(rightItems) == len(items) {
		a.releaseEvents(emark)
		a.releaseItems(imark)
		c.makeLeaf(a, items, depth)
		return
	}

	// Splice: one ordered pass distributes surviving events; straddler
	// replacements are sorted (few) and merged in.
	leftEvents := a.allocEvents(celCap)[:0]
	rightEvents := a.allocEvents(cerCap)[:0]
	for _, e := range events {
		switch cls[e.slot] {
		case clsLeft:
			e.slot = leftSlot[e.slot]
			leftEvents = append(leftEvents, e)
		case clsRight:
			e.slot = rightSlot[e.slot]
			rightEvents = append(rightEvents, e)
		}
	}
	leftEvents = mergeNewEvents(a, leftEvents, leftNew)
	rightEvents = mergeNewEvents(a, rightEvents, rightNew)

	c.counters.noteInner()
	self := a.emitInner(split.Axis, split.Pos)
	if depth < c.spawnCap {
		la, ra := c.b.getArena(), c.b.getArena()
		var wg sync.WaitGroup
		wg.Add(2)
		//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
		c.pool.Spawn(func() {
			defer wg.Done()
			c.recurseSortOnce(la, leftItems, leftEvents, lb, depth+1)
		})
		//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
		c.pool.Spawn(func() {
			defer wg.Done()
			c.recurseSortOnce(ra, rightItems, rightEvents, rb, depth+1)
		})
		wg.Wait()
		a.graft(la)
		a.patchRight(self, a.graft(ra))
		c.b.putArena(la)
		c.b.putArena(ra)
	} else {
		c.recurseSortOnce(a, leftItems, leftEvents, lb, depth+1)
		a.patchRight(self, int32(len(a.nodes)))
		c.recurseSortOnce(a, rightItems, rightEvents, rb, depth+1)
	}
	a.releaseEvents(emark)
	a.releaseItems(imark)
}

// mergeNewEvents sorts the regenerated straddler events and merges them
// with the already-ordered spliced window, returning the merged window
// (carved off the arena's event stack; the spliced window is simply
// abandoned until the node's release).
func mergeNewEvents(a *arena, spliced, fresh []soEvent) []soEvent {
	if len(fresh) == 0 {
		return spliced
	}
	slices.SortFunc(fresh, soLess)
	out := a.allocEvents(len(spliced) + len(fresh))[:0]
	i, j := 0, 0
	for i < len(spliced) && j < len(fresh) {
		if soLess(spliced[i], fresh[j]) <= 0 {
			out = append(out, spliced[i])
			i++
		} else {
			out = append(out, fresh[j])
			j++
		}
	}
	out = append(out, spliced[i:]...)
	out = append(out, fresh[j:]...)
	return out
}
