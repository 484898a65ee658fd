// Package lockfx is the locks-rule fixture: no blocking operation while a
// mutex may be held, and every observed lock nesting must be declared in
// Config.LockOrder. The test rescopes Config.Scopes["locks"] onto this
// package and declares the order outer.mu < inner.mu plus a LockMethods
// entry for table.get.
package lockfx

import (
	"sync"
	"time"

	"kdtune/internal/parallel"
)

// entry mirrors PR 9's e.mu deadlock shape: a cache entry whose mutex
// was held across a wait on the entry's own fill latch.
type entry struct {
	mu   sync.Mutex
	done chan struct{}
	val  int
}

func waitWhileLocked(e *entry) {
	e.mu.Lock()
	<-e.done // want `channel receive while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
	e.mu.Unlock()
}

func waitAfterUnlock(e *entry) {
	e.mu.Lock()
	v := e.val
	e.mu.Unlock()
	<-e.done
	_ = v
}

// deferredUnlockHoldsToExit: for this analysis a deferred Unlock keeps
// the lock held through the body — exactly the window being policed.
func deferredUnlockHoldsToExit(e *entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	<-e.done // want `channel receive while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
}

func selectWhileLocked(e *entry, tick chan struct{}) {
	e.mu.Lock()
	select { // want `select while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
	case <-e.done:
	case <-tick:
	}
	e.mu.Unlock()
}

func pollWhileLocked(e *entry) {
	e.mu.Lock()
	select { // non-blocking poll: a default case cannot park the holder
	case <-e.done:
	default:
	}
	e.mu.Unlock()
}

func sleepWhileLocked(e *entry) {
	e.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
	e.mu.Unlock()
}

func sendWhileLocked(e *entry, out chan int) {
	e.mu.Lock()
	out <- e.val // want `channel send while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
	e.mu.Unlock()
}

func dispatchWhileLocked(e *entry, xs []float64) {
	e.mu.Lock()
	parallel.For(nil, len(xs), 2, func(lo, hi int) {}) // want `kdtune/internal/parallel\.For while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
	e.mu.Unlock()
}

// goroutineEscapes: the launched body blocks, the holder does not.
func goroutineEscapes(e *entry, done chan struct{}) {
	e.mu.Lock()
	go notify(done)
	e.mu.Unlock()
}

func notify(done chan struct{}) { <-done }

// heldOnOneBranch: may-analysis — the lock is held on one path into the
// receive, so the receive is flagged.
func heldOnOneBranch(e *entry, fast bool) {
	if !fast {
		e.mu.Lock()
	}
	<-e.done // want `channel receive while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
	if !fast {
		e.mu.Unlock()
	}
}

type inner struct {
	mu sync.Mutex
	n  int
}

type outer struct {
	mu sync.Mutex
	in inner
}

// declaredNesting follows the declared order outer.mu < inner.mu.
func declaredNesting(o *outer) {
	o.mu.Lock()
	o.in.mu.Lock()
	o.in.n++
	o.in.mu.Unlock()
	o.mu.Unlock()
}

// reversedNesting inverts it.
func reversedNesting(o *outer) {
	o.in.mu.Lock()
	o.mu.Lock() // want `acquires kdtune/internal/lint/testdata/src/lockfx\.outer\.mu while kdtune/internal/lint/testdata/src/lockfx\.inner\.mu is held, reversing the declared order`
	o.mu.Unlock()
	o.in.mu.Unlock()
}

type table struct {
	mu sync.Mutex
	m  map[string]int
}

func (t *table) get(k string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

// undeclaredNesting: table.get acquires table.mu internally (declared in
// LockMethods); taking it under entry.mu is a nesting no one reviewed.
func undeclaredNesting(e *entry, t *table) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return t.get("k") // want `undeclared lock nesting: kdtune/internal/lint/testdata/src/lockfx\.table\.mu acquired while kdtune/internal/lint/testdata/src/lockfx\.entry\.mu is held`
}

// selfNesting: two instances of one class with no declared self-order.
func selfNesting(a, b *entry) {
	a.mu.Lock()
	b.mu.Lock() // want `acquires kdtune/internal/lint/testdata/src/lockfx\.entry\.mu while another instance of the same class is held`
	b.val, a.val = a.val, b.val
	b.mu.Unlock()
	a.mu.Unlock()
}
