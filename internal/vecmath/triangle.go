package vecmath

import "math"

// Triangle is the geometric primitive stored in kD-trees: three vertices in
// counter-clockwise winding order.
type Triangle struct {
	A, B, C Vec3
}

// Tri constructs a triangle from its three vertices.
func Tri(a, b, c Vec3) Triangle { return Triangle{a, b, c} }

// Bounds returns the triangle's axis-aligned bounding box.
func (t Triangle) Bounds() AABB {
	return AABB{
		Min: t.A.Min(t.B).Min(t.C),
		Max: t.A.Max(t.B).Max(t.C),
	}
}

// Centroid returns the barycentre of the triangle.
func (t Triangle) Centroid() Vec3 {
	return t.A.Add(t.B).Add(t.C).Scale(1.0 / 3.0)
}

// Normal returns the (unnormalised) geometric normal (B-A) x (C-A).
func (t Triangle) Normal() Vec3 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A))
}

// UnitNormal returns the normalised geometric normal, or the zero vector
// for degenerate triangles.
func (t Triangle) UnitNormal() Vec3 { return t.Normal().Normalize() }

// Area returns the triangle's surface area.
func (t Triangle) Area() float64 { return 0.5 * t.Normal().Len() }

// IsDegenerate reports whether the triangle has (numerically) zero area or
// non-finite vertices. Degenerate triangles are skipped by intersection and
// never produce hits.
func (t Triangle) IsDegenerate() bool {
	if !t.A.IsFinite() || !t.B.IsFinite() || !t.C.IsFinite() {
		return true
	}
	return t.Normal().Len2() < 1e-300
}

// Transform returns the triangle with m applied to every vertex.
func (t Triangle) Transform(m Mat4) Triangle {
	return Triangle{m.ApplyPoint(t.A), m.ApplyPoint(t.B), m.ApplyPoint(t.C)}
}

// EpsIntersect guards the Möller–Trumbore determinant against rays parallel
// to the triangle plane: a test whose |det| is below it misses.
const EpsIntersect = 1e-12

// IntersectRay intersects ray r with the triangle using the Möller–Trumbore
// algorithm. On a hit it returns the parametric distance t (in units of
// |r.Dir|) with t in (tMin, tMax), plus the barycentric coordinates (u, v)
// of the hit point with respect to vertices B and C.
func (t Triangle) IntersectRay(r Ray, tMin, tMax float64) (tHit, u, v float64, hit bool) {
	e1, e2 := t.B.Sub(t.A), t.C.Sub(t.A)
	return IntersectRayPre(&t.A, &e1, &e2, &r.Origin, &r.Dir, tMin, tMax)
}

// IntersectRayPre is IntersectRay over a triangle in precomputed-edge form,
// vertex a plus the edge vectors e1 = B-A and e2 = C-A, and a ray given as
// its origin o and direction d. It is the repository's one Möller–Trumbore
// routine. Callers that store many triangles this way (the kD-tree's SoA
// leaf layout) skip the two edge subtractions per test; results are bitwise
// identical to IntersectRay as long as e1/e2 were produced by exactly those
// subtractions. The vectors are passed by pointer: by value they and the
// bounds are 20 float64s, more than the register ABI's 15 float argument
// registers, so the ray would be copied through the stack on every test.
func IntersectRayPre(a, e1, e2, o, d *Vec3, tMin, tMax float64) (tHit, u, v float64, hit bool) {
	p := d.Cross(*e2)
	det := e1.Dot(p)
	if math.Abs(det) < EpsIntersect {
		return 0, 0, 0, false
	}
	inv := 1 / det
	s := o.Sub(*a)
	u = s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, 0, 0, false
	}
	q := s.Cross(*e1)
	v = d.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, 0, 0, false
	}
	tHit = e2.Dot(q) * inv
	if tHit <= tMin || tHit >= tMax {
		return 0, 0, 0, false
	}
	return tHit, u, v, true
}
