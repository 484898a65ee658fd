package kdtree

import "kdtune/internal/vecmath"

// triSoA is the structure-of-arrays intersection layout for leaf triangle
// tests. The three slices run parallel to Tree.leafTris: slot i holds
// vertex A and the precomputed Möller–Trumbore edges (e1 = B-A, e2 = C-A)
// of the triangle leafTris[i] references. Packing in leaf-reference order
// (rather than triangle order) makes every leaf's candidate set a single
// contiguous run — the scalar and packet leaf loops stream three adjacent
// arrays instead of chasing leafTris[i] -> tris[ti] indirections, and
// triangles referenced by several leaves are simply duplicated.
//
// Because e1/e2 come from exactly the subtractions Triangle.IntersectRay
// performs before it calls the same vecmath.IntersectRayPre, the leaf loops
// (which pass slot pointers to that routine, or run its shared-origin split
// originTri) are bitwise identical to the AoS path; the packet-vs-scalar
// oracle depends on this.
//
// A Builder owns the backing arrays like any other arena: the Tree returned
// by Build borrows them, and warm rebuilds refill them in place.
type triSoA struct {
	a  []vecmath.Vec3 // vertex A per leaf reference
	e1 []vecmath.Vec3 // B - A
	e2 []vecmath.Vec3 // C - A
}

// build (re)fills the arrays in leaf-reference order. Storage is reused
// when capacity allows, so a warm rebuild performs no allocation here.
func (s *triSoA) build(tris []vecmath.Triangle, leafTris []int32) {
	n := len(leafTris)
	s.a = ensureLen(s.a, n)
	s.e1 = ensureLen(s.e1, n)
	s.e2 = ensureLen(s.e2, n)
	for i, ti := range leafTris {
		tr := tris[ti]
		s.a[i] = tr.A
		s.e1[i] = tr.B.Sub(tr.A)
		s.e2[i] = tr.C.Sub(tr.A)
	}
}
