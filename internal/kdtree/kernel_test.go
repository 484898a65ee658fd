package kdtree

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// refIntersectRayPre is the leaf kernel as it stood before the ray was
// passed by pointer: vecmath.IntersectRayPre's body copied verbatim, with
// its epsilon, so the fuzz target holds both current formulations to the
// bits of the old one.
func refIntersectRayPre(a, e1, e2 vecmath.Vec3, r vecmath.Ray, tMin, tMax float64) (tHit, u, v float64, hit bool) {
	const epsIntersect = 1e-12
	p := r.Dir.Cross(e2)
	det := e1.Dot(p)
	if math.Abs(det) < epsIntersect {
		return 0, 0, 0, false
	}
	inv := 1 / det
	s := r.Origin.Sub(a)
	u = s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, 0, 0, false
	}
	q := s.Cross(e1)
	v = r.Dir.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, 0, 0, false
	}
	tHit = e2.Dot(q) * inv
	if tHit <= tMin || tHit >= tMax {
		return 0, 0, 0, false
	}
	return tHit, u, v, true
}

// leafKernelShared is the flag bit of a leaf-kernel fuzz input's first byte
// that gives every lane lane 0's origin; the low four bits hold the lane
// count minus one.
const leafKernelShared = 0x10

// leafKernelInput is one decoded fuzz input: a triangle in SoA form, the
// test interval and 1–16 rays.
type leafKernelInput struct {
	a, e1, e2  vecmath.Vec3
	tMin, tMax float64
	rays       []vecmath.Ray
}

// decodeLeafKernel reads a fuzz input: the flag byte, then raw little-endian
// float64 bits for a, e1, e2, tMin and tMax, then per lane its origin (lane
// 0's only, when shared) and its direction. Missing bytes read as zero, so
// every input decodes.
func decodeLeafKernel(data []byte) leafKernelInput {
	var flags byte
	if len(data) > 0 {
		flags, data = data[0], data[1:]
	}
	next := func() float64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	vec := func() vecmath.Vec3 { return vecmath.V(next(), next(), next()) }
	var in leafKernelInput
	in.a, in.e1, in.e2 = vec(), vec(), vec()
	in.tMin, in.tMax = next(), next()
	in.rays = make([]vecmath.Ray, 1+int(flags&0xf))
	for l := range in.rays {
		o := in.rays[0].Origin
		if l == 0 || flags&leafKernelShared == 0 {
			o = vec()
		}
		in.rays[l] = vecmath.Ray{Origin: o, Dir: vec()}
	}
	return in
}

// leafKernelSeed encodes a fuzz input; lanes holds each ray's origin and
// direction (with shared set, only lane 0's origin is written).
func leafKernelSeed(shared bool, a, e1, e2 vecmath.Vec3, tMin, tMax float64, lanes ...[2]vecmath.Vec3) []byte {
	flags := byte(len(lanes) - 1)
	if shared {
		flags |= leafKernelShared
	}
	buf := []byte{flags}
	put := func(xs ...float64) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	putVec := func(v vecmath.Vec3) { put(v.X, v.Y, v.Z) }
	putVec(a)
	putVec(e1)
	putVec(e2)
	put(tMin, tMax)
	for l, od := range lanes {
		if l == 0 || !shared {
			putVec(od[0])
		}
		putVec(od[1])
	}
	return buf
}

// sameKernelResult reports whether two (t, u, v, hit) results agree bit for
// bit, where any NaN matches any NaN. Go fixes no NaN payload: the compiler
// may swap the operands of a commutative float operation, and amd64 keeps
// the first operand's payload when both are NaN, so two compilations of
// the same expression can return NaNs with different bits (the nan_payload
// seed is such a case for t and v). A NaN t never passes a leaf loop's
// strict t < best acceptance, and occlusion reads only hit.
func sameKernelResult(t1, u1, v1 float64, h1 bool, t2, u2, v2 float64, h2 bool) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return h1 == h2 && same(t1, t2) && same(u1, u2) && same(v1, v2)
}

// FuzzLeafKernel holds both formulations of the leaf test to the old
// kernel's bits: for every lane, vecmath.IntersectRayPre must return
// refIntersectRayPre's (t, u, v, hit) exactly (NaN payloads aside, see
// sameKernelResult), and when the lanes' origins are bitwise equal
// (always, under the shared flag) so must originTri. It also checks that
// sharedOrigin compares bits, so lanes whose origins differ only in the
// sign of a zero or in a NaN payload never share. The committed corpus
// covers ±0 and subnormal directions, det at ±EpsIntersect, u+v = 1, t at
// tMin and at tMax, and signed-zero origins.
func FuzzLeafKernel(f *testing.F) {
	f.Add(leafKernelSeed(true, vecmath.V(0, 0, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0), 1e-9, math.Inf(1),
		[2]vecmath.Vec3{vecmath.V(0.25, 0.25, -1), vecmath.V(0, 0, 1)},
		[2]vecmath.Vec3{vecmath.V(0.25, 0.25, -1), vecmath.V(0.5, 0.5, 1)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeLeafKernel(data)
		rays := in.rays
		var want [MaxPacketWidth]struct {
			t, u, v float64
			hit     bool
		}
		var all uint32
		shared := true
		for l := range rays {
			all |= 1 << uint(l)
			w := &want[l]
			w.t, w.u, w.v, w.hit = refIntersectRayPre(in.a, in.e1, in.e2, rays[l], in.tMin, in.tMax)
			th, u, v, hit := vecmath.IntersectRayPre(&in.a, &in.e1, &in.e2, &rays[l].Origin, &rays[l].Dir, in.tMin, in.tMax)
			if !sameKernelResult(th, u, v, hit, w.t, w.u, w.v, w.hit) {
				t.Fatalf("lane %d: IntersectRayPre (%v, %v, %v, %v), reference (%v, %v, %v, %v)", l, th, u, v, hit, w.t, w.u, w.v, w.hit)
			}
			o, o0 := rays[l].Origin, rays[0].Origin
			if math.Float64bits(o.X) != math.Float64bits(o0.X) || math.Float64bits(o.Y) != math.Float64bits(o0.Y) || math.Float64bits(o.Z) != math.Float64bits(o0.Z) {
				shared = false
			}
		}
		if got := sharedOrigin(rays); got != shared {
			t.Fatalf("sharedOrigin = %v, origins bitwise equal = %v", got, shared)
		}
		if !shared {
			return
		}
		// All lanes, then every other lane: inactive lanes must never be
		// reported.
		var ps PacketScratch
		for _, active := range []uint32{all, all & 0x5555} {
			hits := ps.originTri(rays, active, &in.a, &in.e1, &in.e2, in.tMin, in.tMax)
			if hits&^active != 0 {
				t.Fatalf("originTri reported inactive lanes %#x of active %#x", hits&^active, active)
			}
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				var th, u, v float64
				hit := hits&(1<<uint(l)) != 0
				if hit {
					th, u, v = ps.th[l], ps.tu[l], ps.tv[l]
				}
				if w := want[l]; !sameKernelResult(th, u, v, hit, w.t, w.u, w.v, w.hit) {
					t.Fatalf("lane %d: originTri (%v, %v, %v, %v), reference (%v, %v, %v, %v)", l, th, u, v, hit, w.t, w.u, w.v, w.hit)
				}
			}
		}
	})
}

// BenchmarkLeafKernel times one leaf's candidates against one primary
// packet of width 4 from WoodDoll's camera (in-place, base config): the
// leaf holding the closest hit of the packet's first lane. The reference is
// the old by-value kernel; "pointer" is vecmath.IntersectRayPre as the
// general leaf loops call it, and "shared-origin" is originTri, which
// primary packets run. One op tests every lane against every candidate.
func BenchmarkLeafKernel(b *testing.B) {
	sc := scene.WoodDoll()
	cfg := BaseConfig(AlgoInPlace)
	cfg.Workers = 1
	tree := Build(sc.Triangles(0), cfg)
	view := sc.ViewAt(0)
	fwd := view.LookAt.Sub(view.Eye)
	right := fwd.Cross(view.Up).Normalize().Scale(0.01 * fwd.Len())
	rays := make([]vecmath.Ray, 4)
	for l := range rays {
		rays[l] = vecmath.NewRay(view.Eye, fwd.Add(right.Scale(float64(l))))
	}
	hit, ok := tree.Intersect(rays[0], 1e-9, math.Inf(1))
	if !ok {
		b.Fatal("the packet's first lane misses WoodDoll")
	}
	lo, hi := leafAt(tree, rays[0].At(hit.T))
	b.Logf("leaf with %d candidates", hi-lo)
	tMin, tMax := 1e-9, math.Inf(1)
	soa := &tree.soa
	var sink int
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := lo; j < hi; j++ {
				for l := range rays {
					if _, _, _, h := refIntersectRayPre(soa.a[j], soa.e1[j], soa.e2[j], rays[l], tMin, tMax); h {
						sink++
					}
				}
			}
		}
	})
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := lo; j < hi; j++ {
				for l := range rays {
					if _, _, _, h := vecmath.IntersectRayPre(&soa.a[j], &soa.e1[j], &soa.e2[j], &rays[l].Origin, &rays[l].Dir, tMin, tMax); h {
						sink++
					}
				}
			}
		}
	})
	b.Run("shared-origin", func(b *testing.B) {
		var ps PacketScratch
		for i := 0; i < b.N; i++ {
			for j := lo; j < hi; j++ {
				sink += bits.OnesCount32(ps.originTri(rays, 0xf, &soa.a[j], &soa.e1[j], &soa.e2[j], tMin, tMax))
			}
		}
	})
	if sink == 0 {
		b.Fatal("no lane hit any candidate")
	}
}

// leafAt returns the SoA slot range of the leaf of t (which must hold no
// deferred nodes) that contains point p; a point on a split plane goes to
// the right child.
func leafAt(t *Tree, p vecmath.Vec3) (lo, hi int) {
	node := t.root
	for {
		n := t.nodes[node]
		if n.kind() == kindLeaf {
			return int(n.triStart()), int(n.triStart() + n.triCount())
		}
		if p.Axis(n.axis()) < n.pos {
			node++
		} else {
			node = n.right()
		}
	}
}
