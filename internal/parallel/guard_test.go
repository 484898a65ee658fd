package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// recoverWorkerPanic runs f and returns the *WorkerPanic it panics with,
// failing the test if f returns normally or panics with anything else.
func recoverWorkerPanic(t *testing.T, f func()) *WorkerPanic {
	t.Helper()
	var wp *WorkerPanic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic propagated")
			}
			var ok bool
			if wp, ok = r.(*WorkerPanic); !ok {
				t.Fatalf("panic value is %T (%v), want *WorkerPanic", r, r)
			}
		}()
		f()
	}()
	return wp
}

func TestForChunksPanicPropagatesTyped(t *testing.T) {
	const n, workers = 1000, 8
	var ran atomic.Int64
	wp := recoverWorkerPanic(t, func() {
		ForChunks(nil, n, workers, 1, func(chunk, lo, hi int) {
			ran.Add(1)
			if chunk == 3 {
				panic("boom in chunk 3")
			}
		})
	})
	if wp.Chunk != 3 {
		t.Errorf("Chunk = %d, want 3", wp.Chunk)
	}
	if wp.Value != "boom in chunk 3" {
		t.Errorf("Value = %v", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Errorf("no stack captured")
	}
	// All chunks had started or finished before the panic reached us — the
	// join-before-rethrow contract means no detached goroutine survives.
	if got := ran.Load(); got < 1 || got > workers {
		t.Errorf("ran = %d chunks, want 1..%d", got, workers)
	}
}

func TestForChunksInlinePanicWrapped(t *testing.T) {
	// A single chunk runs inline on the caller; the panic must still arrive
	// as the same typed value.
	wp := recoverWorkerPanic(t, func() {
		ForChunks(nil, 10, 1, 1, func(chunk, lo, hi int) { panic("inline") })
	})
	if wp.Chunk != 0 || wp.Value != "inline" {
		t.Errorf("got chunk=%d value=%v", wp.Chunk, wp.Value)
	}
}

func TestWorkerPanicUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	wp := recoverWorkerPanic(t, func() {
		ForChunks(nil, 100, 4, 1, func(chunk, lo, hi int) { panic(sentinel) })
	})
	if !errors.Is(wp, sentinel) {
		t.Errorf("errors.Is(wp, sentinel) = false; Unwrap must expose error panic values")
	}
	// Double wrapping must not happen: re-panicking a *WorkerPanic keeps it.
	if got := AsWorkerPanic(7, wp); got != wp {
		t.Errorf("AsWorkerPanic re-wrapped an existing *WorkerPanic")
	}
}

func TestForChunksFirstPanicWins(t *testing.T) {
	// All chunks panic; exactly one value must come out, and it must carry a
	// valid chunk index.
	const n, workers = 64, 8
	wp := recoverWorkerPanic(t, func() {
		ForChunks(nil, n, workers, 1, func(chunk, lo, hi int) {
			panic(fmt.Sprintf("chunk %d", chunk))
		})
	})
	if wp.Chunk < 0 || wp.Chunk >= workers {
		t.Errorf("Chunk = %d out of range", wp.Chunk)
	}
	if want := fmt.Sprintf("chunk %d", wp.Chunk); wp.Value != want {
		t.Errorf("Value %v does not match Chunk %d", wp.Value, wp.Chunk)
	}
}

func TestCancelerSemantics(t *testing.T) {
	var nilC *Canceler
	if nilC.Canceled() {
		t.Fatalf("nil Canceler reports canceled")
	}
	if nilC.Err() != nil {
		t.Fatalf("nil Canceler has non-nil Err")
	}

	var cc Canceler
	if cc.Canceled() || cc.Err() != nil {
		t.Fatalf("fresh Canceler not clean")
	}
	first, second := errors.New("first"), errors.New("second")
	if !cc.Cancel(first) {
		t.Fatalf("first Cancel lost")
	}
	if cc.Cancel(second) {
		t.Fatalf("second Cancel won")
	}
	if !cc.Canceled() || cc.Err() != first {
		t.Fatalf("state after cancel: canceled=%v err=%v", cc.Canceled(), cc.Err())
	}
	cc.Reset()
	if cc.Canceled() || cc.Err() != nil {
		t.Fatalf("Reset did not re-arm")
	}
	if !cc.Cancel(second) {
		t.Fatalf("Cancel after Reset lost")
	}
	if cc.Err() != second {
		t.Fatalf("Err after re-cancel = %v", cc.Err())
	}
}

func TestForChunksCancelSkipsRemaining(t *testing.T) {
	// Pre-canceled: nothing runs at all.
	var cc Canceler
	cc.Cancel(errors.New("stop"))
	ran := 0
	ForChunks(&cc, 1000, 8, 1, func(chunk, lo, hi int) { ran++ })
	if ran != 0 {
		t.Fatalf("pre-canceled dispatch ran %d chunks", ran)
	}

	// Cancel from inside chunk 0 of a wide grain-forced dispatch: with 1
	// worker the chunks run one after another on sequentialised goroutine
	// scheduling, but the contract is only "not-yet-started chunks are
	// skipped" — so assert the weaker, always-true property: every chunk
	// that DID run started before it observed the cancel flag.
	cc.Reset()
	var ranChunks atomic.Int64
	ForChunks(&cc, 1024, 8, 1, func(chunk, lo, hi int) {
		ranChunks.Add(1)
		cc.Cancel(errors.New("from body"))
	})
	if !cc.Canceled() {
		t.Fatalf("cancel from body lost")
	}
	if got := ranChunks.Load(); got < 1 || got > 8 {
		t.Fatalf("ran %d chunks, want 1..workers", got)
	}
}

func TestExclusiveScanCancelPreCanceled(t *testing.T) {
	var cc Canceler
	cc.Cancel(errors.New("stop"))
	src := make([]int, 10000)
	for i := range src {
		src[i] = 1
	}
	dst := make([]int, len(src))
	if got := ExclusiveScan(&cc, dst, src, 8); got != 0 {
		t.Fatalf("pre-canceled scan returned %d, want zero", got)
	}
}

func TestPoolPanicRethrownAtWait(t *testing.T) {
	p := NewPool(4)
	// First Spawn into an empty pool always takes a goroutine slot, so the
	// panic is recovered on the worker and stored for Wait.
	p.Spawn(func() { panic("task 0") })
	var wp *WorkerPanic
	func() {
		defer func() {
			if r := recover(); r != nil {
				wp, _ = r.(*WorkerPanic)
			}
		}()
		p.Wait()
	}()
	if wp == nil {
		t.Fatalf("Wait did not rethrow the task panic as *WorkerPanic")
	}
	if wp.Value != "task 0" {
		t.Errorf("Value = %v", wp.Value)
	}
	// Pool stays usable after a drained panic.
	var done atomic.Int64
	p.Spawn(func() { done.Add(1) })
	p.Wait()
	if done.Load() != 1 {
		t.Fatalf("pool unusable after drained panic")
	}
}

func TestPoolPanicHandler(t *testing.T) {
	p := NewPool(2)
	var got atomic.Pointer[WorkerPanic]
	p.SetPanicHandler(func(wp *WorkerPanic) { got.CompareAndSwap(nil, wp) })

	// Guarantee the goroutine path: first Spawn into an empty pool always
	// takes a slot.
	p.Spawn(func() { panic("handled") })
	p.Wait() // must NOT panic: handler consumed it
	wp := got.Load()
	if wp == nil {
		t.Fatalf("handler never called")
	}
	if wp.Value != "handled" {
		t.Errorf("Value = %v", wp.Value)
	}
}

func TestPoolInlinePanicOnCaller(t *testing.T) {
	p := NewPool(1)
	block := make(chan struct{})
	p.Spawn(func() { <-block }) // occupy the only slot
	defer func() {
		close(block)
		p.Wait()
	}()
	// Saturated: this Spawn runs inline and the panic propagates on our own
	// stack (the caller's recovery point owns it — Builder wraps recursion
	// in exactly such a recover).
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("inline panic did not propagate on caller stack")
		}
	}()
	p.Spawn(func() { panic("inline task") })
}

func TestSortFuncPanicPropagates(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := make([]int, 200000) // above the parallel cutoff
	for i := range s {
		s[i] = r.Int()
	}
	wp := recoverWorkerPanic(t, func() {
		// Every comparison panics; the first recovered one wins and must
		// come out only after both halves have joined (under -race, a
		// detached goroutine still writing s would be caught here).
		SortFunc(nil, s, 8, func(a, b int) int { panic("cmp panic") })
	})
	if wp.Value != "cmp panic" {
		t.Errorf("Value = %v", wp.Value)
	}
}

func TestSortFuncStillSortsAfterPanicRecovery(t *testing.T) {
	// A fresh SortFunc on the same substrate must work right after one
	// aborted — no poisoned shared state.
	func() {
		defer func() { recover() }()
		SortFunc(nil, make([]int, 100000), 4, func(a, b int) int { panic("x") })
	}()
	r := rand.New(rand.NewSource(7))
	s := make([]int, 100000)
	for i := range s {
		s[i] = r.Intn(1000)
	}
	SortFunc(nil, s, 4, func(a, b int) int { return a - b })
	if !slices.IsSorted(s) {
		t.Fatalf("not sorted after prior panic")
	}
}
