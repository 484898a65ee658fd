package parallel

import (
	"sync"

	"kdtune/internal/faultinject"
)

// chunkGeometry is the single source of truth for how a loop over [0, n) is
// tiled into contiguous chunks: every chunk-dispatching primitive in this
// package derives its schedule from here, so callers never have to
// reverse-engineer chunk boundaries. grain <= 1 imposes no minimum chunk
// size; grain > 1 caps the chunk count so each chunk holds at least grain
// elements (except possibly the final remainder). workers <= 0 selects
// DefaultWorkers().
func chunkGeometry(n, workers, grain int) (chunks, size int) {
	if n <= 0 {
		return 0, 0
	}
	workers = normWorkers(workers)
	if grain > 1 {
		maxChunks := (n + grain - 1) / grain
		if workers > maxChunks {
			workers = maxChunks
		}
	}
	if workers > n {
		workers = n
	}
	size = (n + workers - 1) / workers
	return (n + size - 1) / size, size
}

// ChunkCount returns the number of chunks ForChunks dispatches for the same
// (n, workers, grain) triple. Callers sizing per-chunk result arrays must
// use this instead of re-deriving the geometry themselves.
func ChunkCount(n, workers, grain int) int {
	chunks, _ := chunkGeometry(n, workers, grain)
	return chunks
}

// ForChunks divides [0, n) into contiguous chunks — at most one per worker,
// each at least grain elements long (grain <= 1 disables the floor) — and
// runs body(chunk, lo, hi) on each concurrently. The chunk index is passed
// explicitly so per-chunk outputs can be written without any implicit
// contract between the caller's arithmetic and the scheduler's: chunk is
// always in [0, ChunkCount(n, workers, grain)) and chunks are numbered in
// ascending range order. A single chunk runs inline on the caller.
// workers <= 0 selects DefaultWorkers(). The grain guards against
// parallelisation overhead dominating tiny loops, the purpose OpenMP's
// schedule chunk size serves.
//
// Cancellation is cooperative: chunks that have not started when cc is
// canceled are skipped (in-flight chunks drain). After a canceled dispatch
// the per-chunk outputs are an unspecified mix of written and untouched —
// callers must check cc.Canceled() before consuming them. A nil cc is never
// canceled and costs nothing.
//
// A panic in any chunk body is recovered on the worker, the first one wins,
// and it is re-raised on the caller as a *WorkerPanic after all workers have
// joined — a crashing chunk can never leave detached goroutines writing into
// caller-owned storage.
func ForChunks(cc *Canceler, n, workers, grain int, body func(chunk, lo, hi int)) {
	chunks, size := chunkGeometry(n, workers, grain)
	if chunks == 0 || cc.Canceled() {
		return
	}
	var verify func()
	if chunkChecks {
		body, verify = wrapChunkBody(n, chunks, size, cc, body)
	}
	if chunks == 1 {
		runChunk(nil, cc, 0, 0, n, body)
		if verify != nil && !cc.Canceled() {
			verify()
		}
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		go func(c, lo, hi int) {
			defer wg.Done()
			runChunk(&box, cc, c, lo, hi, body)
		}(c, lo, hi)
	}
	wg.Wait()
	box.rethrow()
	// The invariant check must only run on a clean pass: a canceled dispatch
	// legitimately skips chunks, and a rethrown panic must not be masked by
	// the checker's own "chunk ran 0 times" failure.
	if verify != nil && !cc.Canceled() {
		verify()
	}
}

// runChunk executes one chunk body with the cancellation gate and the fault
// probe. With a box it recovers panics into it (worker goroutines); without
// one the panic propagates on the caller's stack (single-chunk inline path),
// wrapped so both paths deliver the same *WorkerPanic type.
func runChunk(box *panicBox, cc *Canceler, c, lo, hi int, body func(chunk, lo, hi int)) {
	if box != nil {
		defer box.recoverInto(c)
	} else {
		defer func() {
			if r := recover(); r != nil {
				panic(AsWorkerPanic(c, r))
			}
		}()
	}
	if cc.Canceled() {
		return
	}
	faultinject.Check(faultinject.SiteParallelChunk, c)
	body(c, lo, hi)
}

// For divides the index range [0, n) into one contiguous chunk per worker
// and runs body(lo, hi) on each chunk concurrently, with ForChunks'
// cancellation and panic semantics. It is the analogue of "#pragma omp
// parallel for" with static scheduling. workers <= 0 selects
// DefaultWorkers(); small n degrades gracefully to fewer chunks or a plain
// sequential call. Callers that need to know which chunk they are in must
// use ForChunks instead of deriving it from lo.
func For(cc *Canceler, n, workers int, body func(lo, hi int)) {
	ForChunks(cc, n, workers, 1, func(_, lo, hi int) { body(lo, hi) })
}

// SplitBudget divides a worker budget between an outer loop of outerN
// independent tasks and the parallelism available inside each task, so that
// nesting parallel loops cannot oversubscribe the budget (outer·inner <=
// workers holds for every bias). With bias 0 the outer loop takes the budget
// first and the inner loops get the leftovers; once the outer loop alone
// saturates the budget the inner loops run sequentially. Each +1 of bias
// halves the outer width (rounding up, floor 1) and hands the freed budget
// to the inner loops; the useful range is small (0..3 in the builders'
// registered tunable). The bias exists because the neutral split is a
// heuristic, not an optimum: frontiers of few huge nodes profit from deeper
// within-node parallelism than it grants, and where that trade-off lies is
// a property of the machine, so it is searched online instead of
// hard-coded. workers <= 0 selects DefaultWorkers().
func SplitBudget(workers, outerN, bias int) (outer, inner int) {
	workers = normWorkers(workers)
	if outerN < 1 {
		outerN = 1
	}
	outer = workers
	if outer > outerN {
		outer = outerN
	}
	for ; bias > 0 && outer > 1; bias-- {
		outer = (outer + 1) / 2
	}
	inner = workers / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}
