package kdtree

import (
	"sync"

	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// nestedSequentialCutoff is the node size below which the nested builder
// stops parallelising within nodes and falls back to the node-level sweep
// recursion, a sweep-engine subtree that sorts its events once at that
// node: for small primitive lists the fork-join and scan overhead exceeds
// the work (Choi et al. make the same transition from their "nested" to
// per-subtree processing once enough parallelism exists across subtrees).
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
		c.recurseSweep(a, items, evLists{}, bounds, depth, false)
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

// parallelPartition distributes items into the two children using the
// classic three-phase structure: a parallel classification pass computing
// per-item output counts, exclusive prefix scans turning the counts into
// write offsets, and a parallel scatter pass that computes each child box
// once. An item goes to a side exactly when its offset there is below the
// next item's (or the side's total), so the scanned counts also record the
// classification. All scratch comes from the arena (it dies before the
// recursion descends); the child lists are carved off the item stack at
// the exact sizes the scans report.
func (c *buildCtx) parallelPartition(a *arena, items []item, split sah.Split, parent vecmath.AABB) (left, right []item, lb, rb vecmath.AABB) {
	lb, rb = parent.Split(split.Axis, split.Pos)
	n := len(items)
	workers := c.cfg.Workers

	a.cntL = ensureLen(a.cntL, n)
	a.cntR = ensureLen(a.cntR, n)
	cntL, cntR := a.cntL, a.cntR

	cc := c.canceler()
	parallel.For(cc, n, workers, func(loIdx, hiIdx int) {
		for i := loIdx; i < hiIdx; i++ {
			goesLeft, goesRight := c.classify(items[i], split, lb, rb)
			cntL[i], cntR[i] = 0, 0
			if goesLeft {
				cntL[i] = 1
			}
			if goesRight {
				cntR[i] = 1
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

	axis := split.Axis
	parallel.For(cc, n, workers, func(loIdx, hiIdx int) {
		for i := loIdx; i < hiIdx; i++ {
			nextL, nextR := nl, nr
			if i+1 < n {
				nextL, nextR = cntL[i+1], cntR[i+1]
			}
			it := items[i]
			if cntL[i] < nextL {
				b, _ := c.childBounds(it, lb, axis)
				left[cntL[i]] = item{it.tri, b}
			}
			if cntR[i] < nextR {
				b, _ := c.childBounds(it, rb, axis)
				right[cntR[i]] = item{it.tri, b}
			}
		}
	})
	return left, right, lb, rb
}
