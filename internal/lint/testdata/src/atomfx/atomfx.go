// Package atomfx is the atomics-rule fixture: variables accessed through
// sync/atomic anywhere must be accessed atomically everywhere. The test
// rescopes Config.Scopes["atomics"] onto this package.
package atomfx

import "sync/atomic"

// gauge mirrors PR 9's mixed-access bug shape: a pending counter bumped
// atomically by one goroutine and read plainly by another.
type gauge struct {
	pending  int64
	fallback int64
}

func (g *gauge) inc() {
	atomic.AddInt64(&g.pending, 1)
}

func (g *gauge) dec() {
	atomic.AddInt64(&g.pending, -1)
}

func (g *gauge) snapshot() int64 {
	return g.pending // want `pending is accessed atomically at atomfx\.go:\d+ but plainly here`
}

func (g *gauge) readFallback() int64 {
	return atomic.LoadInt64(&g.fallback)
}

func (g *gauge) bumpFallback() {
	g.fallback++ // want `fallback is accessed atomically at atomfx\.go:\d+ but plainly here`
}

// hits is a package-level counter with consistent atomic access.
var hits int64

func bump()        { atomic.AddInt64(&hits, 1) }
func total() int64 { return atomic.LoadInt64(&hits) }

// misses mixes: atomic writer, plain reader.
var misses int64

func miss()         { atomic.AddInt64(&misses, 1) }
func missed() int64 { return misses } // want `misses is accessed atomically at atomfx\.go:\d+ but plainly here`

// typed is immune by construction: the wrapper API has no plain spelling.
type typed struct {
	n atomic.Int64
}

func (t *typed) inc()       { t.n.Add(1) }
func (t *typed) get() int64 { return t.n.Load() }

// plain is never touched atomically; plain access everywhere is fine.
type plain struct{ n int64 }

func (p *plain) inc()       { p.n++ }
func (p *plain) get() int64 { return p.n }
