// Package oracle is the differential + metamorphic correctness subsystem
// for the kD-tree builders: every claim the benchmarks make about speed is
// only meaningful if the four parallel builders produce trees that answer
// queries exactly like brute force.
//
// Three oracle families are provided (see DESIGN.md §8 for the guarantees
// and the epsilon policy):
//
//   - Ray oracle (this file): closest-hit and occlusion results of
//     kdtree.Tree traversal must match a linear Möller–Trumbore scan over
//     all triangles — same hit/miss verdict, t within epsilon, and the same
//     triangle up to duplicates (coincident or edge-sharing primitives may
//     legitimately report either index at the same t).
//   - Structural oracle (structural.go): leaf contents must exactly cover
//     the triangles whose narrowed/clipped AABBs reach each leaf cell, and
//     the SAH cost recomputed from a public Walk must equal Tree.SAHCost.
//   - Metamorphic oracle (metamorphic.go): hit results must be invariant
//     under triangle reordering, rigid-body scene transforms, builder
//     choice and worker count.
//
// Query cross-checks against internal/bvh and linear scan live in
// queries.go; suite.go composes everything per evaluation scene.
package oracle

import (
	"fmt"
	"math"
	"strings"

	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// Options bounds the oracle's sampling budgets. The zero value selects the
// defaults below; tests in short mode shrink the budgets instead of
// skipping checks.
type Options struct {
	CameraRays int     // primary rays sampled from the scene camera (default 256)
	RandomRays int     // randomized rays through the scene bounds (default 256)
	Epsilon    float64 // relative t tolerance (default 1e-9)
	Seed       int64   // RNG seed for random rays and permutations (default 1)
	Workers    int     // parallelism for the brute-force reference; <=0 = all
}

func (o Options) normalized() Options {
	if o.CameraRays <= 0 {
		o.CameraRays = 256
	}
	if o.RandomRays <= 0 {
		o.RandomRays = 256
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// tolerance is the absolute t tolerance for a reference distance.
func (o Options) tolerance(t float64) float64 {
	return o.Epsilon * math.Max(1, math.Abs(t))
}

// refHit is one brute-force result: the closest hit (if any) plus the
// distance of the second-closest *distinct* surface, used to classify
// near-tie hits when metamorphic checks need stability information.
type refHit struct {
	hit     bool
	t       float64
	tri     int32
	secondT float64 // +Inf when no second distinct-t hit exists
}

// Reference is the brute-force ground truth for one (triangle soup, ray
// set) pair: a linear Möller–Trumbore scan per ray, computed once and then
// compared against any number of trees. All rays share the parametric
// interval (TMin, TMax).
type Reference struct {
	Tris       []vecmath.Triangle
	Rays       []vecmath.Ray
	TMin, TMax float64

	opts Options
	hits []refHit
}

// NewReference computes the linear-scan ground truth (parallel over rays).
func NewReference(tris []vecmath.Triangle, rays []vecmath.Ray, tMin, tMax float64, o Options) *Reference {
	o = o.normalized()
	ref := &Reference{
		Tris: tris, Rays: rays, TMin: tMin, TMax: tMax,
		opts: o,
		hits: make([]refHit, len(rays)),
	}
	//kdlint:nocancel oracle ground-truth fan-out runs in tests, never inside a guarded build
	parallel.For(nil, len(rays), o.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ref.hits[i] = linearClosest(tris, rays[i], tMin, tMax, o)
		}
	})
	return ref
}

// linearClosest is the reference intersector: test every triangle, keep the
// closest hit and the closest strictly-farther distinct hit.
func linearClosest(tris []vecmath.Triangle, r vecmath.Ray, tMin, tMax float64, o Options) refHit {
	best := refHit{t: math.Inf(1), secondT: math.Inf(1), tri: -1}
	for i, tr := range tris {
		th, _, _, hit := tr.IntersectRay(r, tMin, tMax)
		if !hit {
			continue
		}
		switch {
		case th < best.t:
			if best.hit && best.t-th > o.tolerance(th) {
				best.secondT = best.t
			}
			best.t, best.tri, best.hit = th, int32(i), true
		case th-best.t > o.tolerance(best.t) && th < best.secondT:
			best.secondT = th
		}
	}
	return best
}

// Stable reports whether ray i has an unambiguous outcome: either a clean
// miss, or a closest hit that no other surface approaches within epsilon.
// Metamorphic transform checks restrict hit/miss comparisons to stable rays
// (the unstable ones may legitimately flip under floating-point reordering).
func (ref *Reference) Stable(i int) bool {
	h := ref.hits[i]
	if !h.hit {
		return true
	}
	return h.secondT-h.t > 10*ref.opts.tolerance(h.t)
}

// HitCount returns how many reference rays hit anything.
func (ref *Reference) HitCount() int {
	n := 0
	for _, h := range ref.hits {
		if h.hit {
			n++
		}
	}
	return n
}

// mismatch collects a bounded sample of failures plus the total count, so a
// broken tree produces a readable error instead of a megabyte of output.
type mismatch struct {
	total   int
	details []string
}

const maxMismatchDetails = 8

func (m *mismatch) addf(format string, args ...any) {
	m.total++
	if len(m.details) < maxMismatchDetails {
		m.details = append(m.details, fmt.Sprintf(format, args...))
	}
}

func (m *mismatch) err(what string) error {
	if m.total == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %s: %d mismatches; first %d:\n  %s",
		what, m.total, len(m.details), strings.Join(m.details, "\n  "))
}

// CheckTree runs the ray oracle: for every reference ray, Tree.Intersect
// and Tree.Occluded must agree with the linear scan. label is used in error
// messages ("in-place/workers=2").
func (ref *Reference) CheckTree(tree *kdtree.Tree, label string) error {
	var m mismatch
	for i, r := range ref.Rays {
		want := ref.hits[i]
		got, hit := tree.Intersect(r, ref.TMin, ref.TMax)

		switch {
		case hit != want.hit:
			m.addf("ray %d %v: tree hit=%v, linear hit=%v (linear t=%g tri=%d)",
				i, r, hit, want.hit, want.t, want.tri)
		case hit:
			tol := ref.opts.tolerance(want.t)
			if math.Abs(got.T-want.t) > tol {
				m.addf("ray %d %v: tree t=%.17g (tri %d), linear t=%.17g (tri %d), |Δ|=%g > tol %g",
					i, r, got.T, got.Tri, want.t, want.tri, math.Abs(got.T-want.t), tol)
			} else if int32(got.Tri) != want.tri {
				// Different index is only legitimate for a duplicate surface:
				// the tree's triangle must itself intersect at (tolerably)
				// the same distance — which it does by construction, since
				// got.T was computed from it; verify the index is in range
				// and the triangle really produces this hit.
				if got.Tri < 0 || got.Tri >= len(ref.Tris) {
					m.addf("ray %d: tree returned out-of-range triangle %d", i, got.Tri)
				} else if th, _, _, h2 := ref.Tris[got.Tri].IntersectRay(r, ref.TMin, ref.TMax); !h2 || th != got.T {
					m.addf("ray %d: tree claims tri %d at t=%g but that triangle reports hit=%v t=%g",
						i, got.Tri, got.T, h2, th)
				}
			}
		}

		if occ := tree.Occluded(r, ref.TMin, ref.TMax); occ != want.hit {
			m.addf("ray %d %v: tree occluded=%v, linear=%v", i, r, occ, want.hit)
		}
	}
	return m.err("ray oracle (" + label + ")")
}
