// Package parallel provides the shared-memory parallel primitives that the
// kD-tree builders are written against. It plays the role OpenMP plays in
// the paper's C++ implementation:
//
//   - Pool.Spawn mirrors "#pragma omp task" (recursive subtree tasks),
//   - For/ForChunks mirror "#pragma omp parallel for" (loops over primitives
//     and rays; ForChunks adds the chunk index and a minimum chunk size),
//   - ExclusiveScan mirrors the parallel prefix operations of the nested and
//     in-place builders (Choi et al.), SortFunc the event sort of sah's
//     per-node reference search,
//   - per-node sync.Mutex in the lazy builder mirrors "#pragma omp critical".
//
// All primitives take an explicit worker count so the autotuner and the
// platform-simulation harness (Figure 7c) can vary the parallelism budget
// per invocation instead of being pinned to GOMAXPROCS. Every dispatch takes
// a *Canceler first, so a guarded build can abort it at chunk granularity; a
// nil Canceler is never canceled.
//
// Fault containment: every goroutine this package launches (ForChunks
// workers, SortFunc halves, Pool tasks) recovers panics and funnels the
// first one into a typed *WorkerPanic that is either re-raised on the
// caller after all workers join, or handed to a Pool panic handler. No
// primitive can crash the process from a detached goroutine, and none
// returns while a worker it started is still running.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"kdtune/internal/faultinject"
)

// DefaultWorkers returns the parallelism budget used when a caller passes a
// non-positive worker count: the scheduler's GOMAXPROCS value.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// normWorkers clamps a requested worker count into [1, reasonable].
func normWorkers(n int) int {
	if n <= 0 {
		return DefaultWorkers()
	}
	return n
}

// Pool is a bounded task pool for recursive fork-join parallelism. It mimics
// OpenMP's task model: Spawn either runs the task on a fresh goroutine (if a
// worker slot is free) or inline on the caller (if the pool is saturated).
// Running inline when saturated keeps recursive builders deadlock-free and
// caps goroutine count near the worker budget, like OpenMP's task cutoff.
//
// A Pool is reusable; Wait blocks until all spawned tasks (including tasks
// spawned transitively from inside tasks) have finished.
//
// A panic in a task that got its own goroutine is recovered there and either
// delivered to the handler installed with SetPanicHandler or stored and
// re-raised by Wait. A panic in a task that ran inline propagates on the
// calling goroutine's own stack, exactly like any function call — the
// caller's enclosing recovery point (or the handler via Wait, if the unwind
// reaches a joined frame) owns it.
type Pool struct {
	slots      chan struct{}
	wg         sync.WaitGroup
	spawned    atomic.Int64 // tasks that actually got their own goroutine
	inline     atomic.Int64 // tasks that ran inline due to saturation
	dispatched atomic.Int64 // faultinject ordinal for SitePoolTask
	box        panicBox
	onPanic    func(*WorkerPanic)
}

// NewPool creates a pool with the given number of concurrent worker slots.
// workers <= 0 selects DefaultWorkers().
func NewPool(workers int) *Pool {
	return &Pool{slots: make(chan struct{}, normWorkers(workers))}
}

// Workers returns the pool's worker-slot budget.
func (p *Pool) Workers() int { return cap(p.slots) }

// SetPanicHandler installs fn as the sink for panics recovered on pool
// goroutines, replacing the default store-and-rethrow-in-Wait behaviour.
// fn may be called concurrently from multiple tasks. Must be set before any
// Spawn races with it (typically right after NewPool).
func (p *Pool) SetPanicHandler(fn func(*WorkerPanic)) { p.onPanic = fn }

// Spawn runs task, concurrently if a worker slot is available and otherwise
// inline on the calling goroutine. It is safe to call Spawn from inside a
// task.
func (p *Pool) Spawn(task func()) {
	if faultinject.Active() {
		// The probe fires on the dispatching goroutine, before the task is
		// scheduled or run: an injected panic here models a fault at task
		// dispatch and propagates on the spawner's own stack, where its
		// enclosing recovery point owns it. Panicking on the task goroutine
		// before the task body runs would instead strand any join the task
		// was meant to signal (a deadlock no real task panic can cause,
		// since a task's own defers register before its body can fail).
		faultinject.Check(faultinject.SitePoolTask, int(p.dispatched.Add(1))-1)
	}
	select {
	case p.slots <- struct{}{}:
		seq := int(p.spawned.Add(1)) - 1
		p.wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					wp := AsWorkerPanic(seq, r)
					if p.onPanic != nil {
						p.onPanic(wp)
					} else {
						p.box.wp.CompareAndSwap(nil, wp)
					}
				}
				<-p.slots
				p.wg.Done()
			}()
			task()
		}()
	default:
		p.inline.Add(1)
		task()
	}
}

// Wait blocks until every task spawned so far has completed, then re-raises
// the first recovered task panic (as *WorkerPanic) if no panic handler is
// installed. The caller must ensure no further Spawn races with Wait (the
// usual fork-join pattern: recursion has returned, so all Spawns are
// transitively complete once outstanding goroutines drain).
func (p *Pool) Wait() {
	p.wg.Wait()
	if wp := p.box.wp.Swap(nil); wp != nil {
		panic(wp)
	}
}

// Stats reports how many tasks ran on their own goroutine and how many ran
// inline because the pool was saturated. Useful in tests and ablations.
func (p *Pool) Stats() (spawned, inline int64) {
	return p.spawned.Load(), p.inline.Load()
}
