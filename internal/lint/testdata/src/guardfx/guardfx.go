// Package guardfx is the guard-rule fixture. It imports the real
// kdtune/internal/parallel and kdtune/internal/kdtree packages, so the
// type-based call-site matching (including generic instantiation and
// pointer receivers) is exercised against genuine signatures.
package guardfx

import (
	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

func nilCanceler(xs []float64) {
	parallel.For(nil, len(xs), 4, func(lo, hi int) {})                          // want `parallel\.For threads a nil Canceler`
	parallel.SortFunc[float64](nil, xs, 4, func(a, b float64) int { return 0 }) // want `parallel\.SortFunc threads a nil Canceler`
}

func threaded(cc *parallel.Canceler, xs []float64) {
	parallel.For(cc, len(xs), 4, func(lo, hi int) {})
	parallel.ForChunks(cc, len(xs), 4, 64, func(chunk, lo, hi int) {})
	parallel.ExclusiveScan(cc, xs, xs, 4)
	parallel.SortFunc(cc, xs, 4, func(a, b float64) int { return 0 })
}

func spawns(p *parallel.Pool, cc *parallel.Canceler) {
	p.Spawn(func() {}) // want `Pool\.Spawn has no cancellation parameter`

	//kdlint:nocancel the task polls cc at its own chunk boundaries
	p.Spawn(func() { _ = cc.Canceled() })
}

// suppressedDispatch shows a justified nil-Canceler dispatch: the pragma
// rides at the end of the offending line.
func suppressedDispatch(xs []float64) {
	parallel.For(nil, len(xs), 4, func(lo, hi int) {}) //kdlint:nocancel fixture: bounded 3-element dispatch cannot block an abort
}

func rawEntries(tris []vecmath.Triangle, cfg kdtree.Config) *kdtree.Tree {
	b := kdtree.NewBuilder()
	t := b.Build(tris, cfg) // want `unguarded build entry kdtune/internal/kdtree\.Builder\.Build`
	_ = t
	return kdtree.Build(tris, cfg) // want `unguarded build entry kdtune/internal/kdtree\.Build`
}

func guardedEntry(tris []vecmath.Triangle, cfg kdtree.Config) (*kdtree.Tree, error) {
	return kdtree.NewBuilder().BuildGuarded(tris, cfg, kdtree.Guard{})
}

// justifiedRawEntry shows the sanctioned escape hatch for entry discipline.
func justifiedRawEntry(tris []vecmath.Triangle, cfg kdtree.Config) *kdtree.Tree {
	//kdlint:noguard fixture: caller owns the process lifetime and wants the panic
	return kdtree.Build(tris, cfg)
}
