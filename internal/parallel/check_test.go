//go:build parallelcheck

package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kdtune/internal/faultinject"
)

// TestInvariantLayerActive makes the -tags parallelcheck CI job fail loudly
// if the invariant layer is ever wired out; the checks themselves run inside
// every ForChunks/ExclusiveScan call of the whole suite.
func TestInvariantLayerActive(t *testing.T) {
	if !chunkChecks {
		t.Fatal("built with parallelcheck but chunkChecks is false")
	}
	// A scan above the parallel cutoff exercises the scan cross-check.
	src := make([]float64, 10000)
	for i := range src {
		src[i] = float64(i%17) * 0.25
	}
	dst := make([]float64, len(src))
	ExclusiveScan(nil, dst, src, 8)
}

// TestCancelerCheckedPerChunk pins the runtime half of the guard-discipline
// contract: a Canceler threaded through ForChunks is consulted at
// least once per dispatched chunk (wrapChunkBody asserts the same thing on
// every clean dispatch; this test also pins the counter delta directly).
func TestCancelerCheckedPerChunk(t *testing.T) {
	var cc Canceler
	const n, workers = 1000, 8
	chunks := ChunkCount(n, workers, 1)
	before := cc.checkCount()
	var ran atomic.Int64
	ForChunks(&cc, n, workers, 1, func(_, lo, hi int) { ran.Add(int64(hi - lo)) })
	if ran.Load() != n {
		t.Fatalf("ran %d iterations, want %d", ran.Load(), n)
	}
	if got := cc.checkCount() - before; got < int64(chunks) {
		t.Fatalf("canceler checked %d times across %d chunks, want at least once per chunk", got, chunks)
	}
}

// TestCancelerCheckedUnderInjection cancels mid-dispatch while an injected
// delay holds every chunk open: chunks that started before the cancel drain,
// later ones are skipped, and each skipped chunk must still have observed a
// cancellation check (the skip IS the check).
func TestCancelerCheckedUnderInjection(t *testing.T) {
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteParallelChunk, Index: -1, Kind: faultinject.KindDelay,
		Delay: 2 * time.Millisecond,
	})
	defer in.Deactivate()

	var cc Canceler
	const n, workers = 64, 4
	chunks := ChunkCount(n, workers, 1)
	before := cc.checkCount()
	reason := errors.New("test cancel")
	var ran atomic.Int64
	go func() {
		time.Sleep(time.Millisecond)
		cc.Cancel(reason)
	}()
	ForChunks(&cc, n, workers, 1, func(_, lo, hi int) { ran.Add(1) })
	if !cc.Canceled() || !errors.Is(cc.Err(), reason) {
		t.Fatalf("canceler not canceled with the expected reason: %v", cc.Err())
	}
	if got := cc.checkCount() - before; got < int64(chunks) {
		t.Fatalf("canceler checked %d times across %d dispatched chunks, want at least once per chunk", got, chunks)
	}
	_ = ran.Load() // how many chunks drained is timing-dependent; the check count is the invariant
}
