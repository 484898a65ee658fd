// Package arenafx is the arena-rule fixture: it declares its own pooled
// arena type (the rule pools any type named arena; the test puts this
// package in Config.Scopes["arena"]) and exercises every way an alias can
// cross — or legally stay inside — the package surface.
package arenafx

import "sync"

// arena mimics the builder's pooled storage: slices that are recycled after
// every build.
type arena struct {
	nodes []int
	items []float64
	head  *int
}

var pool = sync.Pool{New: func() any { return new(arena) }}

// Result is the exported structure a build hands back.
type Result struct {
	Nodes []int
	n     int
}

// cache is a package-level variable; arena storage parked here outlives the
// build that filled it.
var cache []int

// LeakNodes returns pooled storage across the package boundary.
func LeakNodes() []int {
	a := pool.Get().(*arena)
	defer pool.Put(a)
	return a.nodes // want `LeakNodes returns a value aliasing pooled arena storage`
}

// LeakHead leaks a pointer-typed arena field.
func LeakHead() *int {
	a := pool.Get().(*arena)
	defer pool.Put(a)
	return a.head // want `LeakHead returns a value aliasing pooled arena storage`
}

// LeakWindow shows that slicing keeps the taint: a sub-window of pooled
// storage is still pooled storage.
func LeakWindow(lo, hi int) []float64 {
	a := pool.Get().(*arena)
	defer pool.Put(a)
	return a.items[lo:hi] // want `LeakWindow returns a value aliasing pooled arena storage`
}

// LeakStruct packages the alias inside a struct value; the taint follows
// through composite literals.
func LeakStruct() Result {
	a := pool.Get().(*arena)
	defer pool.Put(a)
	return Result{Nodes: a.nodes} // want `LeakStruct returns a value aliasing pooled arena storage`
}

// CopyNodes is the sanctioned pattern: copy out before the pool takes the
// storage back.
func CopyNodes() []int {
	a := pool.Get().(*arena)
	defer pool.Put(a)
	out := make([]int, len(a.nodes))
	copy(out, a.nodes)
	return out
}

// internalWindow is unexported: aliases that stay inside the package are
// the builder's normal stack discipline and are not flagged.
func internalWindow(a *arena) []int {
	return a.nodes[:0]
}

func stores(a *arena, r *Result) {
	cache = a.nodes                   // want `package variable cache captures pooled arena storage`
	r.Nodes = a.nodes                 // want `field Nodes of exported type Result captures pooled arena storage`
	r.n = len(a.nodes)                // length is a value, not an alias
	cache = make([]int, len(a.nodes)) // sizing from a length is not an alias either
}

// transferOwnership is the Builder.finish pattern: the arena is retired
// from the pool (never Put back), so handing its storage to the result is
// an ownership transfer, documented where it happens.
func transferOwnership(a *arena, r *Result) {
	//kdlint:allow arena.store arena retired from pool; ownership transfers to Result
	r.Nodes = a.nodes
}

// reset is an arena method: the pooling machinery itself may do anything
// with its own fields.
func (a *arena) reset() []int {
	a.nodes = a.nodes[:0]
	return a.nodes
}
