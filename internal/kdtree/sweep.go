package kdtree

import (
	"math"

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
// then Z, and one sah.NodeCost per node costs each plane, so the sweep
// sees exactly the (pos, kind) sequence a fresh sort of the node's events
// produces.

// An event is one candidate plane packed into 32 bits: its kind in the top
// two bits, its item slot (an index into the node's item window) below.
// Ordering events as integers orders them by (kind, slot). The position is
// not stored; it is read from the slot's box (Min for starts and planars,
// Max for ends). A list is sorted by (pos, kind, slot), a total order, so
// its contents never depend on the sort algorithm: the engine radix-sorts
// (see radixSort), and sah's reference search sorts by comparison.
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

// evKey is an event decorated with its position key. Sorting keys by value
// keeps the sort inside the key array instead of chasing slots into the
// item window; only the codes are kept once the sort is done.
type evKey struct {
	pos  uint64 // posKey of the event's position
	code uint32
}

// posKey maps a finite position to a uint64 whose unsigned order is the
// float order: the sign bit is flipped for positives and every bit for
// negatives. -0 is folded onto +0, which the float order does not tell
// apart, so keys that tie on pos fall back on their code as floats do.
func posKey(pos float64) uint64 {
	b := math.Float64bits(pos)
	if pos == 0 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// evPos is the position of event e on axis, read from its slot's box.
func evPos(items []item, axis vecmath.Axis, e uint32) float64 {
	b := &items[e&evSlotMask].bounds
	if e>>evKindShift == evEnd {
		return b.Max.Axis(axis)
	}
	return b.Min.Axis(axis)
}

// keyCursors returns the write positions of the first end, planar and start
// key of a list of n events from the given number of boxes: the code order
// puts ends first, then planars, then starts. A box with a zero extent
// makes one planar event, any other box a start and an end, so the list
// holds 2·boxes−n planars.
func keyCursors(n, boxes int) [3]int {
	planars := 2*boxes - n
	return [3]int{evEnd: 0, evPlanar: boxes - planars, evStart: n - (boxes - planars)}
}

// putKeys writes the events of slot's box b on axis at the cursors w and
// advances them: one planar event for a zero extent, a start and an end
// otherwise.
func putKeys(keys []evKey, w *[3]int, slot uint32, axis vecmath.Axis, b *vecmath.AABB) {
	lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
	if lo == hi {
		keys[w[evPlanar]] = evKey{posKey(lo), evPlanar<<evKindShift | slot}
		w[evPlanar]++
		return
	}
	keys[w[evEnd]] = evKey{posKey(hi), evEnd<<evKindShift | slot}
	keys[w[evStart]] = evKey{posKey(lo), evStart<<evKindShift | slot}
	w[evEnd]++
	w[evStart]++
}

// radixInsertionCutoff is the list length below which radixSort sorts by
// insertion: a short list does not pay for the digit histograms.
const radixInsertionCutoff = 64

// radixSort sorts keys by pos, stably, and returns the sorted list: keys
// itself or tmp, its ping-pong partner, which must be at least as long.
// Callers write keys in code order, so the result is in (pos, code) order:
// (pos, kind, slot). It is an LSD radix sort over 8-bit digits that skips
// every digit all keys share (positions within one node share their sign
// and most exponent bits) and sorts short lists by insertion.
func radixSort(keys, tmp []evKey) []evKey {
	n := len(keys)
	if n < radixInsertionCutoff {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i
			for ; j > 0 && keys[j-1].pos > k.pos; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	var counts [8][256]uint32
	for _, k := range keys {
		p := k.pos
		counts[0][byte(p)]++
		counts[1][byte(p>>8)]++
		counts[2][byte(p>>16)]++
		counts[3][byte(p>>24)]++
		counts[4][byte(p>>32)]++
		counts[5][byte(p>>40)]++
		counts[6][byte(p>>48)]++
		counts[7][byte(p>>56)]++
	}
	src, dst := keys, tmp[:n]
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(src[0].pos>>shift)] == uint32(n) {
			continue
		}
		var off uint32
		for i, m := range c {
			c[i] = off
			off += m
		}
		for _, k := range src {
			b := byte(k.pos >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// countEvents adds the per-axis event counts of box b to n.
func countEvents(n *[3]int, b *vecmath.AABB) {
	n[0] += 2
	n[1] += 2
	n[2] += 2
	if b.Min.X == b.Max.X {
		n[0]--
	}
	if b.Min.Y == b.Max.Y {
		n[1]--
	}
	if b.Min.Z == b.Max.Z {
		n[2]--
	}
}

// sortedEvents generates the events of every item and sorts them, one axis
// at a time through a's key scratch, into lists carved off a's event stack.
func (a *arena) sortedEvents(items []item) evLists {
	var n [3]int
	for i := range items {
		countEvents(&n, &items[i].bounds)
	}
	ev := a.allocEventLists(n)
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		keys := a.keyScratch(n[axis])
		w := keyCursors(n[axis], len(items))
		for s := range items {
			putKeys(keys, &w, uint32(s), axis, &items[s].bounds)
		}
		for _, k := range radixSort(keys, a.radix) {
			ev[axis] = append(ev[axis], k.code)
		}
	}
	return ev
}

// sweepEvents runs the event sweep over a node's sorted lists (never empty:
// the node has items) and returns the minimum-cost split, or false if no
// valid candidate plane exists — the per-node reference search's result for
// the same items.
func (c *buildCtx) sweepEvents(items []item, ev evLists, bounds vecmath.AABB) (sah.Split, bool) {
	best := sah.Split{Cost: math.Inf(1)}
	found := false
	n := len(items)
	nc, ok := c.params.NodeCost(bounds, n)
	if !ok {
		return best, false
	}
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		list := ev[axis]
		nl, nr := 0, n
		pos := evPos(items, axis, list[0])
		for i := 0; i < len(list); {
			// One group per position: ends, planars and starts at pos. Each
			// event's position is read once; the first one that differs
			// opens the next group.
			var k [3]int
			k[list[i]>>evKindShift]++
			next := pos
			for i++; i < len(list); i++ {
				if next = evPos(items, axis, list[i]); next != pos {
					break
				}
				k[list[i]>>evKindShift]++
			}
			nr -= k[evEnd] + k[evPlanar]
			if nc.Plane(&best, axis, pos, nl, nr, k[evPlanar]) {
				found = true
			}
			nl += k[evStart] + k[evPlanar]
			pos = next
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
	for s := range items {
		it := &items[s]
		slots[s] = noSlot
		lo, hi := it.bounds.Min.Axis(axis), it.bounds.Max.Axis(axis)
		if lo < pos || (lo == hi && lo == pos) {
			var kept, ok bool
			if left, kept, ok = c.appendChild(left, it, &lb, axis, &cl); kept {
				slots[s] = uint32(len(left) - 1)
			} else if ok {
				freshL = append(freshL, uint32(len(left)-1))
			}
		}
		if hi > pos {
			var kept, ok bool
			if right, kept, ok = c.appendChild(right, it, &rb, axis, &cr); kept {
				slots[s] = slotRight | uint32(len(right)-1)
			} else if ok {
				freshR = append(freshR, uint32(len(right)-1))
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

// appendChild appends it to child with its box inside the child box cb, as
// childBounds computes it, and adds the box's events to n. ok is false when
// the item misses the child; kept reports that its box is unchanged, so its
// events carry over. Without clipping only the extent along axis can
// change: it is narrowed in place with the math.Max/math.Min calls
// childBounds makes, and the item counts as unchanged when both of its
// endpoints on the axis compare equal.
func (c *buildCtx) appendChild(child []item, it *item, cb *vecmath.AABB, axis vecmath.Axis, n *[3]int) (_ []item, kept, ok bool) {
	if c.cfg.UseClipping {
		b, ok := c.childBounds(*it, *cb, axis)
		if !ok {
			return child, false, false
		}
		countEvents(n, &b)
		return append(child, item{it.tri, b}), b == it.bounds, true
	}
	lo, hi := it.bounds.Min.Axis(axis), it.bounds.Max.Axis(axis)
	clo, chi := math.Max(lo, cb.Min.Axis(axis)), math.Min(hi, cb.Max.Axis(axis))
	if chi < clo {
		return child, false, false
	}
	child = append(child, *it)
	b := &child[len(child)-1].bounds
	b.Min = b.Min.SetAxis(axis, clo)
	b.Max = b.Max.SetAxis(axis, chi)
	countEvents(n, b)
	return child, clo == lo && chi == hi, true
}

// mergeFresh sorts the events of the fresh slots on axis and merges them
// into the spliced list l from the back: l's window has room for exactly
// them, so the merge needs no second window.
func (a *arena) mergeFresh(l []uint32, items []item, fresh []uint32, axis vecmath.Axis) []uint32 {
	if len(fresh) == 0 {
		return l
	}
	n := cap(l) - len(l)
	keys := a.keyScratch(n)
	w := keyCursors(n, len(fresh))
	for _, s := range fresh {
		putKeys(keys, &w, s, axis, &items[s].bounds)
	}
	keys = radixSort(keys, a.radix)
	i, k := len(l)-1, cap(l)-1
	l = l[:cap(l)]
	for j := len(keys) - 1; j >= 0; k-- {
		if i >= 0 {
			if p := posKey(evPos(items, axis, l[i])); p > keys[j].pos || p == keys[j].pos && l[i] > keys[j].code {
				l[k] = l[i]
				i--
				continue
			}
		}
		l[k] = keys[j].code
		j--
	}
	return l
}
