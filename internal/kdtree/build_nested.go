package kdtree

import (
	"sync"

	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// nestedSequentialCutoff is the node size below which the nested builder
// stops parallelising within nodes and falls back to the plain node-level
// recursion: for small primitive lists the fork-join and scan overhead
// exceeds the work (Choi et al. make the same transition from their
// "nested" to per-subtree processing once enough parallelism exists across
// subtrees).
const nestedSequentialCutoff = 2048

// buildNested implements the nested parallel algorithm of §IV-B: subtree
// tasks exactly as in the node-level variant, plus parallel processing of
// the primitive list inside a node. The per-node work — histogramming
// primitive extents and partitioning the list — is expressed as parallel
// passes over primitive chunks followed by short serialised merges, the
// "sequence of parallel prefix operations" structure of the original
// algorithm.
func (c *buildCtx) buildNested() vecmath.AABB {
	a := &c.b.main
	items, bounds := c.rootItems(a)
	if len(items) == 0 {
		return vecmath.AABB{}
	}
	c.recurseNested(a, items, bounds, 0)
	return bounds
}

func (c *buildCtx) recurseNested(a *arena, items []item, bounds vecmath.AABB, depth int) {
	if c.checkAbort(depth) {
		return
	}
	if len(items) < nestedSequentialCutoff {
		c.recurseNodeLevel(a, items, bounds, depth)
		return
	}
	if depth >= c.cfg.MaxDepth {
		c.makeLeaf(a, items, depth)
		return
	}

	split, ok := c.parallelBestSplit(items, bounds)
	if !ok || c.params.ShouldTerminate(len(items), split) {
		c.makeLeaf(a, items, depth)
		return
	}

	mark := a.markItems()
	left, right, lb, rb := c.parallelPartition(a, items, split, bounds)
	// A canceled partition returns unusable lists (skipped chunks leave
	// garbage counts); bail before acting on them.
	if c.aborted() {
		a.releaseItems(mark)
		return
	}
	if len(left) == len(items) && len(right) == len(items) {
		a.releaseItems(mark)
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
			c.recurseNested(la, left, lb, depth+1)
		})
		//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
		c.pool.Spawn(func() {
			defer wg.Done()
			c.recurseNested(ra, right, rb, depth+1)
		})
		wg.Wait()
		a.graft(la)
		a.patchRight(self, a.graft(ra))
		c.b.putArena(la)
		c.b.putArena(ra)
	} else {
		c.recurseNested(a, left, lb, depth+1)
		a.patchRight(self, int32(len(a.nodes)))
		c.recurseNested(a, right, rb, depth+1)
	}
	a.releaseItems(mark)
}

// parallelBestSplit evaluates the binned SAH split search with per-chunk
// private histograms merged at the barrier (parallel histogram + reduction).
// The chunk geometry and the chunk index both come from the parallel
// package, so no arithmetic here can drift out of sync with the scheduler;
// worker counts <= 0 are normalised inside.
func (c *buildCtx) parallelBestSplit(items []item, bounds vecmath.AABB) (sah.Split, bool) {
	return sah.FindBestSplitBinnedChunks(c.canceler(), c.params, bounds, len(items), c.cfg.Bins, c.cfg.Workers, c.cfg.BinGrain,
		func(bs *sah.BinSet, lo, hi int) {
			for i := lo; i < hi; i++ {
				bs.Add(items[i].bounds)
			}
		})
}

// sideFlag classifies one item against a split plane.
type sideFlag uint8

const (
	sideLeft sideFlag = 1 << iota
	sideRight
)

// parallelPartition distributes items into the two children using the
// classic three-phase structure: a parallel classification pass computing
// per-item output counts, exclusive prefix scans turning the counts into
// write offsets, and a parallel scatter pass. All scratch comes from the
// arena (it dies before the recursion descends); the child lists are carved
// off the item stack at the exact sizes the scans report.
func (c *buildCtx) parallelPartition(a *arena, items []item, split sah.Split, parent vecmath.AABB) (left, right []item, lb, rb vecmath.AABB) {
	lb, rb = parent.Split(split.Axis, split.Pos)
	n := len(items)
	workers := c.cfg.Workers

	a.flags = ensureLen(a.flags, n)
	a.cntL = ensureLen(a.cntL, n)
	a.cntR = ensureLen(a.cntR, n)
	// narrowed caches the child bounds computed during classification so the
	// scatter pass does not redo the (potentially expensive) clipping.
	a.narrowed = ensureLen(a.narrowed, n)
	flags, cntL, cntR, boxes := a.flags, a.cntL, a.cntR, a.narrowed

	cc := c.canceler()
	parallel.For(cc, n, workers, func(loIdx, hiIdx int) {
		for i := loIdx; i < hiIdx; i++ {
			it := items[i]
			lo := it.bounds.Min.Axis(split.Axis)
			hi := it.bounds.Max.Axis(split.Axis)
			goesLeft := lo < split.Pos || (lo == hi && lo == split.Pos)
			goesRight := hi > split.Pos
			flags[i] = 0
			cntL[i], cntR[i] = 0, 0
			if goesLeft {
				if b, ok := c.childBounds(it, lb); ok {
					flags[i] |= sideLeft
					cntL[i] = 1
					boxes[i].l = b
				}
			}
			if goesRight {
				if b, ok := c.childBounds(it, rb); ok {
					flags[i] |= sideRight
					cntR[i] = 1
					boxes[i].r = b
				}
			}
		}
	})

	// The cancel flag is monotonic, so a clean check here proves every
	// classification chunk ran: the counts below are trustworthy. Skipped
	// chunks would leave garbage in cntL/cntR (ensureLen does not zero), and
	// scanning garbage could demand absurd allocations — hence the bail
	// before each consumer.
	if cc.Canceled() {
		return nil, nil, lb, rb
	}
	nl := parallel.ExclusiveScan(cc, cntL, cntL, workers)
	nr := parallel.ExclusiveScan(cc, cntR, cntR, workers)
	if cc.Canceled() {
		return nil, nil, lb, rb
	}
	left = a.allocItems(nl)
	right = a.allocItems(nr)

	parallel.For(cc, n, workers, func(loIdx, hiIdx int) {
		for i := loIdx; i < hiIdx; i++ {
			if flags[i]&sideLeft != 0 {
				left[cntL[i]] = item{items[i].tri, boxes[i].l}
			}
			if flags[i]&sideRight != 0 {
				right[cntR[i]] = item{items[i].tri, boxes[i].r}
			}
		}
	})
	return left, right, lb, rb
}
