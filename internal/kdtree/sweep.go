package kdtree

import (
	"cmp"
	"math"
	"slices"

	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// The sweep engine is the only split sweep on the build path (Wald & Havran,
// "On building fast kd-trees for ray tracing, and on doing that in
// O(N log N)", §4). A depth-first subtree generates and sorts the events of
// its items once, at the first node that needs a sweep: the root for
// node-level, the first node under nestedSequentialCutoff for nested and
// for the subtree phase of in-place and lazy, the deferred node for a lazy
// expansion. Every node below splits its parent's sorted lists into its
// children's in one linear pass and sorts fresh events only for the items
// whose box the split narrowed.
//
// Its splits are bit-identical to the per-node search package sah keeps as
// the test reference, which sorts every node's events afresh: every axis
// keeps its own list ordered by (pos, kind), the sweep visits X, then Y,
// then Z, and sah.Params.SweepPlane costs each plane, so the sweep sees
// exactly the (pos, kind) sequence a fresh sort of the node's events
// produces.

// An event is one candidate plane packed into 32 bits: its kind in the top
// two bits, its item slot (an index into the node's item window) below.
// Ordering events as integers orders them by (kind, slot). The position is
// not stored; it is read from the slot's box (Min for starts and planars,
// Max for ends). A list is sorted by (pos, kind, slot), a total order, so
// its contents never depend on the sort algorithm.
const (
	evEnd    uint32 = 0 // the item's extent ends at pos
	evPlanar uint32 = 1 // the item lies in the plane at pos
	evStart  uint32 = 2 // the item's extent starts at pos

	evKindShift        = 30
	evSlotMask  uint32 = 1<<evKindShift - 1

	// A slot map entry sends a parent slot's events to one child: its
	// child slot, with slotRight set for the right child. An item keeps
	// its box, and so its events, in at most one child: an item in both
	// is a straddler, narrowed on both sides.
	slotRight uint32 = 1 << 31
	noSlot    uint32 = ^uint32(0) // the item's events are fresh in every child it reaches
)

// evLists holds a node's events, one sorted list per axis. A subtree root
// arrives with nil lists and sorts its own once it needs a sweep; every
// node that sweeps has at least two items, so its lists are never empty.
type evLists [3][]uint32

// evKey is an event decorated with its position. Sorting keys by value
// keeps the comparisons inside the key array instead of chasing slots into
// the item window; only the codes are kept once the sort is done.
type evKey struct {
	pos  float64
	code uint32
}

func cmpEvKey(x, y evKey) int {
	switch {
	case x.pos < y.pos:
		return -1
	case x.pos > y.pos:
		return 1
	}
	return cmp.Compare(x.code, y.code)
}

// evPos is the position of event e on axis, read from its slot's box.
func evPos(items []item, axis vecmath.Axis, e uint32) float64 {
	b := &items[e&evSlotMask].bounds
	if e>>evKindShift == evEnd {
		return b.Max.Axis(axis)
	}
	return b.Min.Axis(axis)
}

// appendKeys appends the events of slot's box b on axis: one planar event
// for a zero extent, a start and an end otherwise.
func appendKeys(dst []evKey, slot uint32, axis vecmath.Axis, b vecmath.AABB) []evKey {
	lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
	if lo == hi {
		return append(dst, evKey{lo, evPlanar<<evKindShift | slot})
	}
	return append(dst, evKey{lo, evStart<<evKindShift | slot}, evKey{hi, evEnd<<evKindShift | slot})
}

// countEvents adds the per-axis event counts of box b to n.
func countEvents(n *[3]int, b vecmath.AABB) {
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		n[axis] += 2
		if b.Min.Axis(axis) == b.Max.Axis(axis) {
			n[axis]--
		}
	}
}

// sortedEvents generates the events of every item and sorts them, one axis
// at a time through a's key scratch, into lists carved off a's event stack.
// A canceled sort leaves the lists in unspecified order; callers check the
// build's Canceler before sweeping them.
func (c *buildCtx) sortedEvents(a *arena, items []item, workers int) evLists {
	var n [3]int
	for i := range items {
		countEvents(&n, items[i].bounds)
	}
	ev := a.allocEventLists(n)
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		keys := a.keys[:0]
		for s := range items {
			keys = appendKeys(keys, uint32(s), axis, items[s].bounds)
		}
		parallel.SortFunc(c.canceler(), keys, workers, cmpEvKey)
		for _, k := range keys {
			ev[axis] = append(ev[axis], k.code)
		}
		a.keys = keys
	}
	return ev
}

// sweepEvents runs the event sweep over a node's sorted lists and returns
// the minimum-cost split, or false if no valid candidate plane exists —
// the per-node reference search's result for the same items.
func (c *buildCtx) sweepEvents(items []item, ev evLists, bounds vecmath.AABB) (sah.Split, bool) {
	best := sah.Split{Cost: math.Inf(1)}
	found := false
	areaNode := bounds.SurfaceArea()
	if areaNode <= 0 {
		return best, false
	}
	n := len(items)
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		list := ev[axis]
		nl, nr := 0, n
		for i := 0; i < len(list); {
			// One group per position: ends, planars and starts at pos.
			pos := evPos(items, axis, list[i])
			var k [3]int
			for ; i < len(list) && evPos(items, axis, list[i]) == pos; i++ {
				k[list[i]>>evKindShift]++
			}
			nr -= k[evEnd] + k[evPlanar]
			if c.params.SweepPlane(&best, bounds, areaNode, axis, pos, nl, nr, k[evPlanar], n) {
				found = true
			}
			nl += k[evStart] + k[evPlanar]
		}
	}
	return best, found
}

// splitEvents partitions items across the children of split exactly as
// partitionItems does (same side tests, same child boxes, parent order) and
// splices the parent's sorted lists into the children's. An item whose box
// a child keeps unchanged keeps its events there, renumbered in one ordered
// pass over the parent's lists. An item whose box the split narrowed (a
// straddler, or any item re-clipped under UseClipping) gets fresh events,
// sorted and merged in from the back. Child item and event windows are
// carved off a's stacks; the caller releases them. When the split
// duplicates every item the event lists are left unset: the caller makes a
// leaf.
func (c *buildCtx) splitEvents(a *arena, items []item, ev evLists, split sah.Split, lb, rb vecmath.AABB) (left, right []item, lev, rev evLists) {
	axis, pos := split.Axis, split.Pos
	var nl, nr int
	for i := range items {
		lo, hi := items[i].bounds.Min.Axis(axis), items[i].bounds.Max.Axis(axis)
		if lo < pos || (lo == hi && lo == pos) {
			nl++
		}
		if hi > pos {
			nr++
		}
	}
	left = a.allocItems(nl)[:0]
	right = a.allocItems(nr)[:0]
	a.slots = ensureLen(a.slots, len(items))
	slots := a.slots
	freshL, freshR := a.freshL[:0], a.freshR[:0]
	var cl, cr [3]int
	for s, it := range items {
		slots[s] = noSlot
		lo, hi := it.bounds.Min.Axis(axis), it.bounds.Max.Axis(axis)
		if lo < pos || (lo == hi && lo == pos) {
			if b, ok := c.childBounds(it, lb, axis); ok {
				if b == it.bounds {
					slots[s] = uint32(len(left))
				} else {
					freshL = append(freshL, uint32(len(left)))
				}
				left = append(left, item{it.tri, b})
				countEvents(&cl, b)
			}
		}
		if hi > pos {
			if b, ok := c.childBounds(it, rb, axis); ok {
				if b == it.bounds {
					slots[s] = slotRight | uint32(len(right))
				} else {
					freshR = append(freshR, uint32(len(right)))
				}
				right = append(right, item{it.tri, b})
				countEvents(&cr, b)
			}
		}
	}
	a.freshL, a.freshR = freshL, freshR
	if len(left) == len(items) && len(right) == len(items) {
		return left, right, lev, rev
	}

	lev, rev = a.allocEventLists(cl), a.allocEventLists(cr)
	for ax := vecmath.AxisX; ax <= vecmath.AxisZ; ax++ {
		l, r := lev[ax], rev[ax]
		for _, e := range ev[ax] {
			m := slots[e&evSlotMask]
			switch {
			case m == noSlot:
			case m&slotRight == 0:
				l = append(l, e&^evSlotMask|m)
			default:
				r = append(r, e&^evSlotMask|m&evSlotMask)
			}
		}
		lev[ax] = a.mergeFresh(l, left, freshL, ax)
		rev[ax] = a.mergeFresh(r, right, freshR, ax)
	}
	return left, right, lev, rev
}

// mergeFresh sorts the events of the fresh slots on axis and merges them
// into the spliced list l from the back: l's window has room for exactly
// them, so the merge needs no second window.
func (a *arena) mergeFresh(l []uint32, items []item, fresh []uint32, axis vecmath.Axis) []uint32 {
	if len(fresh) == 0 {
		return l
	}
	keys := a.keys[:0]
	for _, s := range fresh {
		keys = appendKeys(keys, s, axis, items[s].bounds)
	}
	slices.SortFunc(keys, cmpEvKey)
	a.keys = keys
	i, k := len(l)-1, cap(l)-1
	l = l[:cap(l)]
	for j := len(keys) - 1; j >= 0; k-- {
		if i >= 0 && cmpEvKey(evKey{evPos(items, axis, l[i]), l[i]}, keys[j]) > 0 {
			l[k] = l[i]
			i--
		} else {
			l[k] = keys[j].code
			j--
		}
	}
	return l
}
