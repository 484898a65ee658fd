package kdtree

import (
	"sync"

	"kdtune/internal/faultinject"
	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// levelNode is one active node of the breadth-first frontier. Its items
// live in a contiguous range of the level's item array, and its tree node
// under construction is an index into bfScratch.nodes (an index, not a
// pointer: the scaffold slice reallocates as it grows).
type levelNode struct {
	bf     int32 // scaffold node under construction (bfScratch.nodes index)
	bounds vecmath.AABB
	start  int // item range [start, end) in the level array
	end    int
	depth  int
}

// bfNode is one node of the breadth-first scaffold. The breadth-first
// phases cannot emit arena nodes directly (pre-order adjacency is unknown
// until the whole top of the tree exists), so they record the shape here —
// leaf/deferred CONTENT goes straight into the main arena, with p0/p1
// holding the final references — and assembleBF lays the scaffold out in
// one pre-order pass at the end.
type bfNode struct {
	pos    float64
	axis   vecmath.Axis
	kind   uint8
	left   int32 // bfInner: child scaffold indices
	right  int32
	p0, p1 int32 // bfLeaf: triStart/triCount; bfDeferred: defs slot; bfSubtree: subs index
}

const (
	bfInner uint8 = iota
	bfLeaf
	bfDeferred
	bfSubtree
)

// bfScratch is the Builder-owned reusable state of the breadth-first
// builders: the scaffold, the ping-pong level item arrays, the double-
// buffered frontier, and the per-level decision/plan/offset tables.
type bfScratch struct {
	nodes    []bfNode
	items    [2][]item
	frontA   []levelNode
	frontB   []levelNode
	decs     []levelDecision
	plans    []childPlan
	chunkOff [][2]int
	subs     []*arena
}

// The minimum number of (triangle, node) pairs classified or scattered per
// chunk during a breadth-first level step is cfg.ScatterGrain (tunable "G",
// default kdtree.DefaultScatterGrain); both passes of scatterLevel read it
// from the build config so the tuner can search it per build.

// buildBreadthFirst implements the in-place parallel algorithm of §IV-C and
// its lazy variant of §IV-D. The tree is built one level at a time:
//
//  1. For every node of the frontier the best split is found by binning its
//     primitives — parallel across nodes, and within large nodes parallel
//     across primitives (parallel histogram + merge).
//  2. Every (triangle, node) pair is reassigned to the children —
//     embarrassingly parallel across pairs, with duplication for
//     straddlers; offsets come from per-node, per-chunk prefix sums.
//
// Once the frontier is wide enough to keep every worker busy with S
// subtrees each (the S parameter), the remaining nodes are finished as
// independent subtree tasks — the paper's lazy variant describes exactly
// this structure ("parallelized across the primitives in the top-level
// nodes and across subtrees in the lower levels").
//
// When lazy is true, nodes holding fewer than R primitives are suspended
// instead of subdivided; they expand on first ray contact (§IV-D).
//
// The switch point between the two phases depends on the worker count, but
// both phases apply identical split, leaf and suspension rules (see
// shouldDefer and decideSplitLevel), so the resulting tree does not: the
// output is worker-count-independent.
func (c *buildCtx) buildBreadthFirst(lazy bool) vecmath.AABB {
	bf := &c.b.bf
	items, bounds := c.rootItemsInto(bf.items[0][:0])
	bf.items[0] = items
	// The level arrays hold the frontier's items, so the memory ceiling
	// counts them like the arena stacks: the root level here, and each
	// next level as it replaces the current one (processLevel).
	c.b.main.charge(int64(len(items)) * itemBytes)
	if len(items) == 0 {
		return vecmath.AABB{}
	}

	bf.nodes = append(bf.nodes[:0], bfNode{})
	fa := append(bf.frontA[:0], levelNode{bf: 0, bounds: bounds, start: 0, end: len(items), depth: 0})
	fb := bf.frontB[:0]
	cur := 0
	switchWidth := c.cfg.S * c.cfg.Workers

	for len(fa) > 0 {
		if c.checkAbort(fa[0].depth) {
			break
		}
		if len(fa) >= switchWidth {
			// Enough subtrees for every worker: finish each node as an
			// independent task emitting into a private arena, grafted into
			// place by assembleBF.
			var wg sync.WaitGroup
			level := bf.items[cur]
			for i := range fa {
				ln := fa[i]
				sub := c.b.getArena()
				bf.nodes[ln.bf] = bfNode{kind: bfSubtree, p0: int32(len(bf.subs))}
				bf.subs = append(bf.subs, sub)
				subItems := level[ln.start:ln.end:ln.end]
				wg.Add(1)
				//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
				c.pool.Spawn(func() {
					defer wg.Done()
					c.finishSubtree(sub, subItems, ln.bounds, ln.depth, lazy)
				})
			}
			wg.Wait()
			break
		}
		fb = c.processLevel(fa, fb[:0], cur, lazy)
		fa, fb = fb, fa
		cur = 1 - cur
	}
	bf.frontA, bf.frontB = fa, fb

	// An aborted build leaves the scaffold incomplete; assembling it would
	// chase unset child indices. BuildGuarded reclaims bf.subs after the
	// pool drains (a panic may have stranded them mid-task).
	if c.aborted() {
		return bounds
	}

	c.assembleBF(&c.b.main, 0)
	for _, s := range bf.subs {
		c.b.putArena(s)
	}
	bf.subs = bf.subs[:0]
	return bounds
}

// assembleBF lays the scaffold out into a in pre-order, establishing the
// left-child adjacency, and grafts the subtree-task arenas where the
// scaffold points at them. Leaf and deferred scaffold entries already put
// their content in the main arena; only the 16-byte node records are
// emitted here.
func (c *buildCtx) assembleBF(a *arena, bi int32) {
	n := c.b.bf.nodes[bi]
	switch n.kind {
	case bfLeaf:
		a.nodes = append(a.nodes, leafNode(n.p0, n.p1))
	case bfDeferred:
		a.nodes = append(a.nodes, deferredRef(n.p0))
	case bfSubtree:
		a.graft(c.b.bf.subs[n.p0])
	default: // bfInner
		self := a.emitInner(n.axis, n.pos)
		c.assembleBF(a, n.left)
		a.patchRight(self, int32(len(a.nodes)))
		c.assembleBF(a, n.right)
	}
}

// bfLeafNode emits leaf content into the main arena and returns the
// scaffold record referencing it (phase 3 runs single-threaded).
func (c *buildCtx) bfLeafNode(sub []item, depth int) bfNode {
	if faultinject.Active() {
		faultinject.Check(faultinject.SiteBuildLeaf, int(c.b.guard.leafSeq.Add(1))-1)
	}
	main := &c.b.main
	start := int32(len(main.leafTris))
	for _, it := range sub {
		main.leafTris = append(main.leafTris, it.tri)
	}
	c.counters.noteLeaf(len(sub), depth)
	return bfNode{kind: bfLeaf, p0: start, p1: int32(len(sub))}
}

// bfDeferredNode emits a suspended-subtree record into the main arena and
// returns the scaffold record referencing it.
func (c *buildCtx) bfDeferredNode(sub []item, bounds vecmath.AABB, depth int) bfNode {
	main := &c.b.main
	start := int32(len(main.defTris))
	for _, it := range sub {
		main.defTris = append(main.defTris, it.tri)
	}
	main.defs = append(main.defs, defRec{bounds: bounds, start: start, count: int32(len(sub))})
	c.counters.noteDeferred(depth)
	return bfNode{kind: bfDeferred, p0: int32(len(main.defs) - 1)}
}

// shouldDefer reports whether the lazy builder suspends a node of n
// primitives at the given depth instead of subdividing it (§IV-D). The rule
// must be applied identically by the breadth-first and subtree phases:
// which phase reaches a node depends on the worker count, and determinism
// across worker counts requires both phases to agree.
func (c *buildCtx) shouldDefer(lazy bool, n, depth int) bool {
	return lazy && n > 1 && n < c.cfg.R && depth < c.cfg.MaxDepth
}

// decideSplitLevel picks the SAH split for one node of the breadth-first
// builders or reports that it should terminate (leaf). Node size selects the
// search — the binned histogram above nestedSequentialCutoff, where its O(n)
// pass beats the sweep's sort, and the exact event sweep below it, where the
// binned search's fixed per-node cost (bins·axes candidate evaluations plus
// histogram allocation) would dominate the tiny workload. A frontier node
// under the cutoff sorts its own events for its one sweep; the subtree
// phase instead hands such a node to the sweep engine (finishSubtree),
// which splices its sorted events into every node below. The cutoff
// depends only on the node size and workers only bounds the intra-node
// parallelism, so the returned split is identical for every worker count —
// a property both phases of the breadth-first builders rely on.
func (c *buildCtx) decideSplitLevel(a *arena, sub []item, bounds vecmath.AABB, depth, workers int) (sah.Split, bool) {
	if len(sub) <= 1 || depth >= c.cfg.MaxDepth {
		return sah.Split{}, false
	}
	var split sah.Split
	var ok bool
	if len(sub) < nestedSequentialCutoff {
		mark := a.markEvents()
		split, ok = c.sweepEvents(sub, c.sortedEvents(a, sub, 1), bounds)
		a.releaseEvents(mark)
	} else {
		split, ok = sah.FindBestSplitBinnedChunks(c.canceler(), c.params, bounds, len(sub), c.cfg.Bins, workers, c.cfg.BinGrain,
			func(bs *sah.BinSet, lo, hi int) {
				for i := lo; i < hi; i++ {
					bs.Add(sub[i].bounds)
				}
			})
	}
	if !ok || c.params.ShouldTerminate(len(sub), split) {
		return sah.Split{}, false
	}
	return split, true
}

// finishSubtree completes one frontier node depth-first into its private
// arena. It must reproduce exactly the decisions processLevel would have
// made for the same node — same suspension rule, same size-hybrid split
// search, same degenerate-split bailout — because the worker count decides
// which of the two phases a node lands in. A node under
// nestedSequentialCutoff becomes a sweep-engine subtree.
func (c *buildCtx) finishSubtree(a *arena, items []item, bounds vecmath.AABB, depth int, lazy bool) {
	if len(items) < nestedSequentialCutoff {
		c.recurseSweep(a, items, evLists{}, bounds, depth, lazy)
		return
	}
	if c.checkAbort(depth) {
		return
	}
	if c.shouldDefer(lazy, len(items), depth) {
		c.makeDeferred(a, items, bounds, depth)
		return
	}
	split, ok := c.decideSplitLevel(a, items, bounds, depth, 1)
	if !ok {
		c.makeLeaf(a, items, depth)
		return
	}
	mark := a.markItems()
	lb, rb := bounds.Split(split.Axis, split.Pos)
	left, right := c.partitionItems(a, items, split.Axis, split.Pos, lb, rb)
	if len(left) == len(items) && len(right) == len(items) {
		a.releaseItems(mark)
		c.makeLeaf(a, items, depth)
		return
	}
	c.counters.noteInner()
	self := a.emitInner(split.Axis, split.Pos)
	c.finishSubtree(a, left, lb, depth+1, lazy)
	a.patchRight(self, int32(len(a.nodes)))
	c.finishSubtree(a, right, rb, depth+1, lazy)
	a.releaseItems(mark)
}

// levelDecision is the per-node outcome of the split-search phase.
type levelDecision struct {
	split sah.Split
	doit  bool
}

// childPlan describes where one split node's children land in the next
// level's item array. chunkOff holds the exclusive per-chunk write offsets
// (left, right) computed from the classification pass, which makes the
// scatter fully deterministic: chunk geometry is shared between the two
// passes, so every item has a fixed destination slot and the next level's
// item order is the sequential partition order regardless of scheduling.
type childPlan struct {
	leftStart, rightStart int
	nl, nr                int
	chunkOff              [][2]int
}

// processLevel performs one breadth-first step over the whole frontier,
// appending the next frontier to dst (the other ping-pong buffer) and
// scattering its items into the other level array. The worker budget is
// shared between the across-nodes and within-node loops via SplitBudget, so
// nesting them cannot spawn more than Workers goroutines' worth of work.
func (c *buildCtx) processLevel(frontier, dst []levelNode, cur int, lazy bool) []levelNode {
	bf := &c.b.bf
	items := bf.items[cur]
	outerW, innerW := parallel.SplitBudget(c.cfg.Workers, len(frontier), c.cfg.SplitBias)
	cc := c.canceler()

	// Phase 1: best split per node. Parallel across nodes; within a node
	// the histogram is built by per-chunk private BinSets merged at the
	// end (the parallel prefix structure of Choi et al.). Each worker chunk
	// borrows an arena for the sweep search's scratch.
	//
	// Each phase bails at its barrier when the build is canceled: a skipped
	// chunk leaves garbage in the decision/count tables (ensureLen does not
	// zero), and the next phase would act on it — sizing allocations from
	// garbage counts in the worst case.
	bf.decs = ensureLen(bf.decs, len(frontier))
	decisions := bf.decs
	parallel.ForChunks(cc, len(frontier), outerW, 1, func(_, lo, hi int) {
		sa := c.b.getArena()
		for ni := lo; ni < hi; ni++ {
			decisions[ni] = levelDecision{}
			ln := frontier[ni]
			sub := items[ln.start:ln.end]
			if c.shouldDefer(lazy, len(sub), ln.depth) {
				continue // suspend in phase 3
			}
			split, ok := c.decideSplitLevel(sa, sub, ln.bounds, ln.depth, innerW)
			if !ok {
				continue
			}
			decisions[ni] = levelDecision{split: split, doit: true}
		}
		c.b.putArena(sa)
	})
	if c.aborted() {
		return dst
	}

	// Phase 2: classify every (triangle, node) pair, counting per chunk and
	// turning the counts into exclusive per-chunk write offsets. The
	// per-node offset tables are pre-carved sequentially out of one shared
	// backing array so the parallel pass only writes disjoint windows.
	bf.plans = ensureLen(bf.plans, len(frontier))
	plans := bf.plans
	total := 0
	for ni := range frontier {
		plans[ni] = childPlan{}
		if !decisions[ni].doit {
			continue
		}
		total += parallel.ChunkCount(frontier[ni].end-frontier[ni].start, innerW, c.cfg.ScatterGrain)
	}
	bf.chunkOff = ensureLen(bf.chunkOff, total)
	off := 0
	for ni := range frontier {
		if !decisions[ni].doit {
			continue
		}
		cc := parallel.ChunkCount(frontier[ni].end-frontier[ni].start, innerW, c.cfg.ScatterGrain)
		plans[ni].chunkOff = bf.chunkOff[off : off+cc : off+cc]
		off += cc
	}
	parallel.ForChunks(cc, len(frontier), outerW, 1, func(_, lo0, hi0 int) {
		for ni := lo0; ni < hi0; ni++ {
			if !decisions[ni].doit {
				continue
			}
			ln := frontier[ni]
			split := decisions[ni].split
			lb, rb := ln.bounds.Split(split.Axis, split.Pos)
			sub := items[ln.start:ln.end]
			counts := plans[ni].chunkOff
			parallel.ForChunks(cc, len(sub), innerW, c.cfg.ScatterGrain, func(chunk, lo, hi int) {
				var nl, nr int
				for i := lo; i < hi; i++ {
					gl, gr := c.classify(sub[i], split, lb, rb)
					if gl {
						nl++
					}
					if gr {
						nr++
					}
				}
				counts[chunk] = [2]int{nl, nr}
			})
			if cc.Canceled() {
				return
			}
			var nl, nr int
			for ci := range counts {
				cl, cr := counts[ci][0], counts[ci][1]
				counts[ci] = [2]int{nl, nr}
				nl += cl
				nr += cr
			}
			plans[ni].nl = nl
			plans[ni].nr = nr
		}
	})
	if c.aborted() {
		return dst
	}

	next := 0
	for ni := range frontier {
		if !decisions[ni].doit {
			continue
		}
		plans[ni].leftStart = next
		next += plans[ni].nl
		plans[ni].rightStart = next
		next += plans[ni].nr
	}

	// Scatter into the next level's item array at the precomputed offsets.
	// The chunk geometry is identical to phase 2's (same n, workers, grain),
	// so each chunk's writes start exactly where its counts said they would.
	nextItems := ensureLen(bf.items[1-cur], next)
	bf.items[1-cur] = nextItems
	c.b.main.charge(int64(next-len(items)) * itemBytes)
	parallel.ForChunks(cc, len(frontier), outerW, 1, func(_, lo0, hi0 int) {
		for ni := lo0; ni < hi0; ni++ {
			if !decisions[ni].doit {
				continue
			}
			ln := frontier[ni]
			split := decisions[ni].split
			lb, rb := ln.bounds.Split(split.Axis, split.Pos)
			sub := items[ln.start:ln.end]
			plan := plans[ni]
			parallel.ForChunks(cc, len(sub), innerW, c.cfg.ScatterGrain, func(chunk, lo, hi int) {
				l := plan.leftStart + plan.chunkOff[chunk][0]
				r := plan.rightStart + plan.chunkOff[chunk][1]
				for i := lo; i < hi; i++ {
					it := sub[i]
					gl, gr := c.classify(it, split, lb, rb)
					if gl {
						b, _ := c.childBounds(it, lb, split.Axis)
						nextItems[l] = item{it.tri, b}
						l++
					}
					if gr {
						b, _ := c.childBounds(it, rb, split.Axis)
						nextItems[r] = item{it.tri, b}
						r++
					}
				}
			})
		}
	})

	if c.aborted() {
		return dst
	}

	// Phase 3: materialise scaffold nodes and the next frontier; leaves and
	// suspended nodes emit their content here (single-threaded).
	for ni := range frontier {
		ln := frontier[ni]
		sub := items[ln.start:ln.end]
		if !decisions[ni].doit {
			if c.shouldDefer(lazy, len(sub), ln.depth) {
				bf.nodes[ln.bf] = c.bfDeferredNode(sub, ln.bounds, ln.depth)
			} else {
				bf.nodes[ln.bf] = c.bfLeafNode(sub, ln.depth)
			}
			continue
		}
		plan := plans[ni]
		// A split that duplicates everything into both children makes no
		// progress; bail to a leaf exactly like the recursive builders.
		if plan.nl == len(sub) && plan.nr == len(sub) {
			bf.nodes[ln.bf] = c.bfLeafNode(sub, ln.depth)
			continue
		}
		split := decisions[ni].split
		lb, rb := ln.bounds.Split(split.Axis, split.Pos)
		c.counters.noteInner()
		li := int32(len(bf.nodes))
		bf.nodes = append(bf.nodes, bfNode{}, bfNode{})
		bf.nodes[ln.bf] = bfNode{kind: bfInner, axis: split.Axis, pos: split.Pos, left: li, right: li + 1}
		dst = append(dst,
			levelNode{bf: li, bounds: lb, start: plan.leftStart, end: plan.leftStart + plan.nl, depth: ln.depth + 1},
			levelNode{bf: li + 1, bounds: rb, start: plan.rightStart, end: plan.rightStart + plan.nr, depth: ln.depth + 1},
		)
	}
	return dst
}

// classify reports whether an item lands in the left and/or right child,
// mirroring the sequential partition rules (planar primitives go left).
// Without clipping the side tests decide alone: an item lies inside its
// node, so a side it passes always overlaps its box. Under clipping the
// re-clipped half can vanish, and such a half gets no slot.
func (c *buildCtx) classify(it item, split sah.Split, lb, rb vecmath.AABB) (goesLeft, goesRight bool) {
	lo := it.bounds.Min.Axis(split.Axis)
	hi := it.bounds.Max.Axis(split.Axis)
	goesLeft = lo < split.Pos || (lo == hi && lo == split.Pos)
	goesRight = hi > split.Pos
	if c.cfg.UseClipping {
		if goesLeft {
			_, goesLeft = c.childBounds(it, lb, split.Axis)
		}
		if goesRight {
			_, goesRight = c.childBounds(it, rb, split.Axis)
		}
	}
	return goesLeft, goesRight
}
