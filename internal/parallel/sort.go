package parallel

import (
	"slices"
	"sync"
)

// sortSequentialCutoff is the subproblem size below which SortFunc falls
// back to the standard library's pattern-defeating quicksort; smaller
// pieces do not amortise goroutine dispatch.
const sortSequentialCutoff = 8192

// SortFunc sorts s by cmp using a parallel merge sort across the given
// worker budget. The sort is not stable. It sorts the event arrays of sah's
// per-node reference sweep (sah.FindBestSplitSweep), which at a scene's
// root hold hundreds of thousands of entries; the builders' sweep engine
// radix-sorts its own events.
//
// A panic in cmp (on any half, goroutine or caller side) is captured, every
// worker joins, and the first panic is re-raised on the caller as a
// *WorkerPanic — no half is left sorting s after SortFunc returns.
//
// Subproblems that have not started when cc is canceled are skipped and
// pending merges are abandoned (in-flight leaf sorts drain). After a
// canceled call s is an unspecified permutation of its elements — callers
// must check cc.Canceled() before relying on the order. A nil cc is never
// canceled. Cancellation matters because a sort at a scene's root runs
// millions of comparisons (two events per primitive and axis): without a
// cancellation point a caller's deadline could not fire until they
// finished.
func SortFunc[T any](cc *Canceler, s []T, workers int, cmp func(a, b T) int) {
	if cc.Canceled() {
		return
	}
	workers = normWorkers(workers)
	if workers == 1 || len(s) < sortSequentialCutoff {
		slices.SortFunc(s, cmp)
		return
	}
	buf := make([]T, len(s))
	var box panicBox
	mergeSort(cc, s, buf, workers, cmp, &box)
	box.rethrow()
}

// mergeSort recursively splits s, sorting halves on up to `workers` workers
// and merging into buf. Panics from either half land in box (never unwind
// past a pending join), and a poisoned box — or a canceled cc — skips
// further work.
func mergeSort[T any](cc *Canceler, s, buf []T, workers int, cmp func(a, b T) int, box *panicBox) {
	if box.wp.Load() != nil || cc.Canceled() {
		return
	}
	if workers <= 1 || len(s) < sortSequentialCutoff {
		func() {
			defer box.recoverInto(-1)
			slices.SortFunc(s, cmp)
		}()
		return
	}
	mid := len(s) / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mergeSort(cc, s[:mid], buf[:mid], workers/2, cmp, box)
	}()
	mergeSort(cc, s[mid:], buf[mid:], workers-workers/2, cmp, box)
	wg.Wait()

	if box.wp.Load() != nil || cc.Canceled() {
		return
	}
	func() {
		defer box.recoverInto(-1)
		merge(s[:mid], s[mid:], buf, cmp)
		copy(s, buf)
	}()
}

// merge combines two sorted runs into dst (len(dst) == len(a)+len(b)).
func merge[T any](a, b, dst []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	for i < len(a) {
		dst[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		dst[k] = b[j]
		j++
		k++
	}
}
