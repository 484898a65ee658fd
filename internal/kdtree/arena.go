package kdtree

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"kdtune/internal/vecmath"
)

// node is one entry of the flattened tree arena, packed into 16 bytes so an
// inner node shares a cache line with its left child (which is, by the
// adjacency invariant below, always the next entry):
//
//	pos   — split position (inner nodes; zero otherwise)
//	word1 — bits 0..1: nodeKind, bits 2..3: split axis,
//	        bits 4..31: leaf triangle count
//	word0 — inner: right-child index; leaf: start into Tree.leafTris;
//	        deferred: index into Tree.deferred
//
// The left child of an inner node is implicit: it is the node's own index
// plus one. Every producer of []node (builders, arena grafting, the
// serialization reader) maintains this pre-order adjacency.
type node struct {
	pos   float64
	word0 uint32
	word1 uint32
}

// Compile-time pin of the acceptance criterion: the constant underflows (and
// the build fails) if node ever grows past 16 bytes.
const _ = uint(16 - unsafe.Sizeof(node{}))

// maxLeafCount is the largest leaf triangle count representable in the 28
// count bits of word1. No realistic build approaches it (leaves hold tens of
// primitives); it exists to turn silent truncation into a panic.
const maxLeafCount = 1<<28 - 1

func (n node) kind() nodeKind     { return nodeKind(n.word1 & 3) }
func (n node) axis() vecmath.Axis { return vecmath.Axis((n.word1 >> 2) & 3) }
func (n node) right() int32       { return int32(n.word0) }
func (n node) triStart() int32    { return int32(n.word0) }
func (n node) triCount() int32    { return int32(n.word1 >> 4) }
func (n node) deferredIdx() int32 { return int32(n.word0) }

func innerNode(axis vecmath.Axis, pos float64) node {
	return node{pos: pos, word1: uint32(kindInner) | uint32(axis)<<2}
}

func leafNode(triStart, triCount int32) node {
	if triCount > maxLeafCount {
		panic("kdtree: leaf triangle count overflows node layout")
	}
	return node{word0: uint32(triStart), word1: uint32(kindLeaf) | uint32(triCount)<<4}
}

func deferredRef(slot int32) node {
	return node{word0: uint32(slot), word1: uint32(kindDeferred)}
}

// defRec is the build-time record of one suspended lazy subtree: its cell
// plus a range of defTris. It is converted into the mutex-bearing
// deferredNode only when the finished Tree is assembled.
type defRec struct {
	bounds       vecmath.AABB
	start, count int32
}

// arena is one task's private chunk of the final tree plus all the scratch
// the recursion over that chunk needs. Builders emit nodes, leaf triangle
// references and deferred records directly into it — there is no
// intermediate pointer tree — and parallel subtree tasks each get their own
// arena, concatenated back into the parent with graft. All storage is
// retained across builds (reset only truncates), which is what makes a
// reused Builder allocation-free in the steady state.
type arena struct {
	// Output storage (becomes, or is grafted into, the Tree).
	nodes    []node
	leafTris []int32
	defs     []defRec
	defTris  []int32

	// Stack allocators for data that must survive into child recursion:
	// per-node item lists and the sweep engine's per-node event lists.
	// Windows are carved with allocItems/allocEvents and unwound with
	// mark/release in strict LIFO order. Growing the backing array strands
	// the old one, but outstanding windows keep it alive and the stack
	// resumes on the new array, so held slices stay valid.
	items  []item
	events []uint32

	// Per-node scratch that dies before the recursion descends; plain
	// resize-and-reuse, no stack discipline needed.
	keys   []evKey  // sweep: one axis's events with positions, for sorting
	slots  []uint32 // sweep: parent slot -> child slot of a spliced item
	freshL []uint32 // sweep: left-child slots that get fresh events
	freshR []uint32 // sweep: right-child slots that get fresh events
	cntL   []int    // nested: left write offsets (prefix-scanned)
	cntR   []int    // nested: right write offsets

	// live, when non-nil, accumulates the bytes held by the item and event
	// stacks (and, on the main arena, the breadth-first level item arrays)
	// so a guarded build can enforce Guard.MaxArenaBytes. The stacks are
	// where duplication blowup (the CB term) lands; the per-node scratch and
	// node output are bounded by them and deliberately not counted. Only
	// wired up when a memory ceiling is armed, so the default build path
	// pays one nil check per stack operation.
	live *atomic.Int64
}

// Byte sizes of the stack-allocated element types for live accounting.
const (
	itemBytes  = int64(unsafe.Sizeof(item{}))
	eventBytes = int64(unsafe.Sizeof(uint32(0)))
)

// reset truncates all storage, keeping capacity for the next build.
func (a *arena) reset() {
	a.nodes = a.nodes[:0]
	a.leafTris = a.leafTris[:0]
	a.defs = a.defs[:0]
	a.defTris = a.defTris[:0]
	a.items = a.items[:0]
	a.events = a.events[:0]
}

// charge adds delta bytes to the guarded build's live count; a no-op unless
// a memory ceiling is armed (live non-nil).
func (a *arena) charge(delta int64) {
	if a.live != nil {
		a.live.Add(delta)
	}
}

func (a *arena) markItems() int { return len(a.items) }

func (a *arena) releaseItems(m int) {
	a.charge(-int64(len(a.items)-m) * itemBytes)
	a.items = a.items[:m]
}

// allocItems carves a full-length window of n items off the stack. The
// window is capacity-clamped so appends past n cannot silently bleed into a
// sibling's window.
func (a *arena) allocItems(n int) []item {
	a.charge(int64(n) * itemBytes)
	m := len(a.items)
	if m+n > cap(a.items) {
		grown := make([]item, m, growCap(m+n))
		copy(grown, a.items)
		a.items = grown
	}
	a.items = a.items[:m+n]
	return a.items[m : m+n : m+n]
}

func (a *arena) markEvents() int { return len(a.events) }

func (a *arena) releaseEvents(m int) {
	a.charge(-int64(len(a.events)-m) * eventBytes)
	a.events = a.events[:m]
}

func (a *arena) allocEvents(n int) []uint32 {
	a.charge(int64(n) * eventBytes)
	m := len(a.events)
	if m+n > cap(a.events) {
		grown := make([]uint32, m, growCap(m+n))
		copy(grown, a.events)
		a.events = grown
	}
	a.events = a.events[:m+n]
	return a.events[m : m+n : m+n]
}

// allocEventLists carves one node's per-axis event lists, empty with room
// for exactly n[axis] events each.
func (a *arena) allocEventLists(n [3]int) evLists {
	w := a.allocEvents(n[0] + n[1] + n[2])
	y, z := n[0], n[0]+n[1]
	return evLists{w[:0:y], w[y:y:z], w[z:z:len(w)]}
}

// growCap picks the new backing capacity for a stack allocator or a scratch
// buffer: the demand plus half again, enough to amortise regrowth without
// every pooled arena (and every Builder a server keeps per cached tree)
// holding twice its peak for good.
func growCap(need int) int {
	c := need + need/2
	if c < 64 {
		c = 64
	}
	return c
}

// ensureLen returns s resized to length n, reallocating only when capacity
// is short. Contents are unspecified; callers overwrite every element.
func ensureLen[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, growCap(n))
	}
	return s[:n]
}

// emitInner appends an inner node with its right child still unset and
// returns its index for patchRight.
func (a *arena) emitInner(axis vecmath.Axis, pos float64) int32 {
	idx := int32(len(a.nodes))
	a.nodes = append(a.nodes, innerNode(axis, pos))
	return idx
}

// patchRight records the right-child index of an inner node once the left
// subtree has been emitted (the left child needs no patching: adjacency).
func (a *arena) patchRight(self, right int32) {
	a.nodes[self].word0 = uint32(right)
}

// emitLeaf appends the items' triangle indices to leafTris and the leaf node
// referencing them.
func (a *arena) emitLeaf(items []item) {
	start := int32(len(a.leafTris))
	for _, it := range items {
		a.leafTris = append(a.leafTris, it.tri)
	}
	a.nodes = append(a.nodes, leafNode(start, int32(len(items))))
}

// emitDeferred appends a suspended-subtree record and the node referencing
// it (lazy builder).
func (a *arena) emitDeferred(items []item, bounds vecmath.AABB) {
	start := int32(len(a.defTris))
	for _, it := range items {
		a.defTris = append(a.defTris, it.tri)
	}
	a.defs = append(a.defs, defRec{bounds: bounds, start: start, count: int32(len(items))})
	a.nodes = append(a.nodes, deferredRef(int32(len(a.defs)-1)))
}

// graft appends sub's finished output onto a, offsetting every index so the
// concatenated storage is self-consistent, and returns the index at which
// sub's root landed. Left-child adjacency survives because graft preserves
// relative node order and shifts all indices uniformly.
func (a *arena) graft(sub *arena) int32 {
	nodeOff := uint32(len(a.nodes))
	leafOff := uint32(len(a.leafTris))
	defOff := uint32(len(a.defs))
	defTriOff := int32(len(a.defTris))
	for _, n := range sub.nodes {
		switch n.kind() {
		case kindInner:
			n.word0 += nodeOff
		case kindLeaf:
			n.word0 += leafOff
		case kindDeferred:
			n.word0 += defOff
		}
		a.nodes = append(a.nodes, n)
	}
	a.leafTris = append(a.leafTris, sub.leafTris...)
	for _, d := range sub.defs {
		d.start += defTriOff
		a.defs = append(a.defs, d)
	}
	a.defTris = append(a.defTris, sub.defTris...)
	return int32(nodeOff)
}

// expandOnce is a resettable sync.Once: lazy deferred nodes live in a pooled
// value slice that the Builder reuses across builds, and sync.Once can
// neither be reset nor be copied under vet's copylocks rules. done is read
// lock-free on the fast path exactly like sync.Once's own implementation.
type expandOnce struct {
	mu   sync.Mutex
	done atomic.Bool
}

func (o *expandOnce) Do(f func()) {
	if o.done.Load() {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.done.Load() {
		// done is set only once f returns: an expansion that panics leaves
		// the node unexpanded, so the next touch retries it.
		f()
		o.done.Store(true)
	}
}
