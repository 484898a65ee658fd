// Package ctxfx is the ctxflow-rule fixture. It imports the real
// kdtune/internal/parallel and kdtune/internal/kdtree packages so the
// guard- and canceler-provenance checks run against genuine signatures;
// the test rescopes Config.Scopes["ctxflow"] onto this package.
package ctxfx

import (
	"context"
	"sync"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

func rawOps(ch chan int, out chan<- int) {
	<-ch           // want `channel receive outside select cannot observe the request deadline`
	out <- 1       // want `channel send outside select cannot observe the request deadline`
	for range ch { // want `range over a channel cannot observe the request deadline`
	}
}

func timers(wg *sync.WaitGroup) {
	time.Sleep(time.Millisecond) // want `time\.Sleep on a request path ignores the deadline`
	wg.Wait()                    // want `WaitGroup\.Wait cannot observe the request deadline`
}

func selects(ctx context.Context, ch chan int) {
	select { // want `select has neither a default nor a <-ctx\.Done\(\) case`
	case v := <-ch:
		_ = v
	}
	select { // bounded by the request context
	case <-ch:
	case <-ctx.Done():
	}
	select { // non-blocking poll
	case <-ch:
	default:
	}
}

// fill mirrors the serve layer's singleflight latch.
type fill struct{ done chan struct{} }

// waitFill is PR 9's stranded-waiter shape: parking on a latch with no
// deadline. If the filler dies unpublished, the request hangs forever.
func waitFill(f *fill) {
	<-f.done // want `channel receive outside select cannot observe the request deadline`
}

// waitFillBounded is the sanctioned rewrite.
func waitFillBounded(ctx context.Context, f *fill) error {
	select {
	case <-f.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ticket mirrors the admission semaphore: the token return receives from
// a buffered channel this goroutine previously sent on, so it cannot
// block — the pragma records that argument.
type ticket struct{ slots chan struct{} }

func (t *ticket) close() {
	<-t.slots //kdlint:noctx buffered semaphore token return never blocks
}

func guardedInline(ctx context.Context, b *kdtree.Builder, tris []vecmath.Triangle, cfg kdtree.Config) {
	b.BuildGuarded(tris, cfg, kdtree.GuardFromContext(ctx, kdtree.Guard{MaxDepth: 8}))
}

func guardedRaw(b *kdtree.Builder, tris []vecmath.Triangle, cfg kdtree.Config) {
	b.BuildGuarded(tris, cfg, kdtree.Guard{MaxDepth: 8}) // want `guard for BuildGuarded does not derive from kdtune/internal/kdtree\.GuardFromContext`
}

func guardedViaLocal(ctx context.Context, b *kdtree.Builder, tris []vecmath.Triangle, cfg kdtree.Config) {
	g := kdtree.GuardFromContext(ctx, kdtree.Guard{MaxDepth: 8})
	b.BuildGuarded(tris, cfg, g)
}

// guardedParam trusts the caller to have composed the guard.
func guardedParam(b *kdtree.Builder, g kdtree.Guard, tris []vecmath.Triangle, cfg kdtree.Config) {
	b.BuildGuarded(tris, cfg, g)
}

func unlinkedCanceler(xs []float64) {
	var cc parallel.Canceler
	parallel.For(&cc, len(xs), 2, func(lo, hi int) {}) // want `Canceler cc reaches a dispatch without a dominating kdtune/internal/parallel\.LinkContext`
}

func linkedCanceler(ctx context.Context, xs []float64) {
	var cc parallel.Canceler
	stop := parallel.LinkContext(ctx, &cc)
	defer stop()
	parallel.For(&cc, len(xs), 2, func(lo, hi int) {})
}

// linkedOnOneBranch: the link does not dominate the dispatch.
func linkedOnOneBranch(ctx context.Context, fast bool, xs []float64) {
	var cc parallel.Canceler
	if fast {
		stop := parallel.LinkContext(ctx, &cc)
		defer stop()
	}
	parallel.For(&cc, len(xs), 2, func(lo, hi int) {}) // want `Canceler cc reaches a dispatch without a dominating kdtune/internal/parallel\.LinkContext`
}

// paramCanceler trusts the caller to have linked it.
func paramCanceler(cc *parallel.Canceler, xs []float64) {
	parallel.For(cc, len(xs), 2, func(lo, hi int) {})
}

// renderOpts mirrors an options literal carrying a cancellation hook.
type renderOpts struct{ cancel *parallel.Canceler }

func optsLiteralUnlinked(run func(renderOpts)) {
	var cc parallel.Canceler
	run(renderOpts{cancel: &cc}) // want `Canceler cc reaches a dispatch without a dominating kdtune/internal/parallel\.LinkContext`
}

func optsLiteralLinked(ctx context.Context, run func(renderOpts)) {
	var cc parallel.Canceler
	stop := parallel.LinkContext(ctx, &cc)
	defer stop()
	run(renderOpts{cancel: &cc})
}
