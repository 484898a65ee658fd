package kdtree

import (
	"math"
	"math/bits"

	"kdtune/internal/faultinject"
	"kdtune/internal/vecmath"
)

// Packet traversal walks the tree once for a bundle of up to MaxPacketWidth
// coherent rays instead of once per ray. Lanes (bit l of every mask is ray
// rays[l]) share the descent while they agree on the near/far ordering at
// each inner node; per-lane parametric intervals keep the walk exact, and a
// lane whose ordering diverges from the packet is demoted: the scalar core
// (intersectFrom / occludedFrom) finishes the current subtree for it, after
// which it rejoins the packet at the next pending far-subtree pop.
//
// The contract — checked bitwise by the oracle in internal/oracle — is that
// every lane produces exactly the hit record (t, triangle id, barycentrics)
// the scalar Intersect would. This holds by construction:
//
//   - Per-lane intervals evolve by the same arithmetic as the scalar walk
//     (same tSplit product, same boundarySlack comparisons, same in-plane
//     full-interval push), so each lane visits the same leaves in the same
//     order as its scalar twin.
//   - The scalar walk's loop-top early-out ("subtree entirely beyond the
//     best hit") only changes its verdict when best or curMin change, which
//     happens at leaves and pops; applying it per lane at pop time is
//     therefore exactly equivalent.
//   - Leaf tests run vecmath.IntersectRayPre's arithmetic over the same SoA
//     slots in the same order, with the same strict-< best acceptance.
//     Shadow packets call the routine itself. A primary packet whose lanes
//     all share one origin (bitwise) runs originTri instead, which computes
//     the routine's origin-only terms once per triangle and gives each lane
//     the routine's bits (see originTri).
//   - Demotion hands the lane's live (interval, best) state to the scalar
//     core at the divergent node — the continuation a scalar walk would
//     have run from that exact state.

// MaxPacketWidth is the largest number of rays a packet may carry. 16 keeps
// per-entry lane arrays at two cache lines and matches the widest packet
// the autotuner is allowed to pick.
const MaxPacketWidth = 16

// packetStackDepth is the pre-grown shared stack depth; like the scalar
// stack it only grows past this for pathological trees.
const packetStackDepth = traversalStackDepth

// packetEntry is a postponed far-subtree visit shared by every lane whose
// bit is set in mask. t0/t1 are per-lane traversal intervals, valid only at
// lanes in mask (pushes write just those slots, so entries are never copied
// wholesale).
type packetEntry struct {
	node int32
	mask uint32
	t0   [MaxPacketWidth]float64
	t1   [MaxPacketWidth]float64
}

// PacketScratch carries the reusable state of packet traversal. It is the
// caller's per-goroutine scratch — get one, reuse it for every packet that
// goroutine traces (steady state allocates nothing), do not share it
// between goroutines. Results are read from Hits/Ok (IntersectPacket) or
// Occ (OccludedPacket) immediately after a call; the next call overwrites
// them.
type PacketScratch struct {
	Hits [MaxPacketWidth]Hit  // per-lane closest hit (IntersectPacket)
	Ok   [MaxPacketWidth]bool // per-lane hit found (IntersectPacket)
	Occ  [MaxPacketWidth]bool // per-lane occlusion verdict (OccludedPacket)

	// Per-lane unpacked rays and live traversal intervals.
	inv  [MaxPacketWidth]vecmath.Vec3
	org  [MaxPacketWidth][3]float64
	dir  [MaxPacketWidth][3]float64
	idir [MaxPacketWidth][3]float64
	cur0 [MaxPacketWidth]float64
	cur1 [MaxPacketWidth]float64

	// Per-lane (t, u, v) of the hits originTri reports.
	th, tu, tv [MaxPacketWidth]float64

	stack []packetEntry // shared far-subtree stack, high-water sized
}

// entry returns the stack slot at depth sp, growing the backing array past
// its high-water mark on first use. The slot is written speculatively
// during lane classification and only committed (sp incremented) by the
// caller when some lane actually wants the far child.
func (ps *PacketScratch) entry(sp int) *packetEntry {
	if sp >= len(ps.stack) {
		if ps.stack == nil {
			ps.stack = make([]packetEntry, packetStackDepth)
		}
		for sp >= len(ps.stack) {
			ps.stack = append(ps.stack, packetEntry{})
		}
	}
	return &ps.stack[sp]
}

// load unpacks the rays into lane-indexed form and clips each against the
// tree bounds, returning the mask of lanes that reach the tree at all.
func (ps *PacketScratch) load(t *Tree, rays []vecmath.Ray, tMin, tMax float64) uint32 {
	var mask uint32
	for l := range rays {
		r := rays[l]
		inv := r.EffInvDir()
		ps.inv[l] = inv
		ps.org[l] = [3]float64{r.Origin.X, r.Origin.Y, r.Origin.Z}
		ps.dir[l] = [3]float64{r.Dir.X, r.Dir.Y, r.Dir.Z}
		ps.idir[l] = [3]float64{inv.X, inv.Y, inv.Z}
		t0, t1, ok := t.bounds.IntersectRayInv(r.Origin, r.Dir, inv, tMin, tMax)
		if !ok {
			continue
		}
		mask |= 1 << uint(l)
		ps.cur0[l] = t0
		ps.cur1[l] = t1
	}
	return mask
}

// sharedOrigin reports whether every ray starts at the same origin, compared
// bit for bit so that ±0 and NaN components never count as shared.
func sharedOrigin(rays []vecmath.Ray) bool {
	o := &rays[0].Origin
	x, y, z := math.Float64bits(o.X), math.Float64bits(o.Y), math.Float64bits(o.Z)
	for l := 1; l < len(rays); l++ {
		p := &rays[l].Origin
		if math.Float64bits(p.X) != x || math.Float64bits(p.Y) != y || math.Float64bits(p.Z) != z {
			return false
		}
	}
	return true
}

// originTri tests the triangle (a, e1, e2) against every lane in active, for
// a packet whose lanes all start at rays[0]'s origin o, as a pinhole
// camera's primary rays do (see sharedOrigin). It is
// vecmath.IntersectRayPre split at the origin: s = o − a,
// q = s × e1 and e2·q depend only on the origin and the triangle, so they
// are computed once here rather than once per lane, and each lane computes
// only p = d × e2, det, 1/det, u, v and t. Every value is the routine's
// expression over the same operands, and the tests run in the routine's
// order, so each lane gets the routine's (t, u, v, hit) bit for bit. It
// returns the lanes that hit, with their (t, u, v) in ps.th, ps.tu and
// ps.tv.
//
//kdlint:hotpath
func (ps *PacketScratch) originTri(rays []vecmath.Ray, active uint32, a, e1, e2 *vecmath.Vec3, tMin, tMax float64) (hits uint32) {
	s := rays[0].Origin.Sub(*a)
	q := s.Cross(*e1)
	e2q := e2.Dot(q)
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d := &rays[l].Dir
		p := d.Cross(*e2)
		det := e1.Dot(p)
		if math.Abs(det) < vecmath.EpsIntersect {
			continue
		}
		inv := 1 / det
		u := s.Dot(p) * inv
		if u < 0 || u > 1 {
			continue
		}
		v := d.Dot(q) * inv
		if v < 0 || u+v > 1 {
			continue
		}
		th := e2q * inv
		if th <= tMin || th >= tMax {
			continue
		}
		ps.th[l], ps.tu[l], ps.tv[l] = th, u, v
		hits |= 1 << uint(l)
	}
	return hits
}

// splitAgreement reports whether every lane in mask orders the children of
// an axis/pos split the same way, and that shared ordering. The ordering
// predicate is the scalar walk's: origin beyond the plane, or on the plane
// heading negative.
func (ps *PacketScratch) splitAgreement(mask uint32, axis int, pos float64) (swap, agree bool) {
	l0 := bits.TrailingZeros32(mask)
	swap = ps.org[l0][axis] > pos || (ps.org[l0][axis] == pos && ps.dir[l0][axis] < 0)
	for m := mask & (mask - 1); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if sw := ps.org[l][axis] > pos || (ps.org[l][axis] == pos && ps.dir[l][axis] < 0); sw != swap {
			return swap, false
		}
	}
	return swap, true
}

// IntersectPacket finds, for every ray in rays (at most MaxPacketWidth of
// them), the closest intersection in the open interval (tMin, tMax) —
// results land in ps.Hits[l]/ps.Ok[l], bitwise identical to what
// Tree.Intersect(rays[l], tMin, tMax) returns. It reports the number of
// lane-demotions to scalar traversal (coherent packets demote rarely; the
// renderer's demotion-rate counter is this, summed). Safe for concurrent
// use with distinct PacketScratch values; lazy trees expand under the same
// once-latch as the scalar path.
//
//kdlint:hotpath
func (t *Tree) IntersectPacket(ps *PacketScratch, rays []vecmath.Ray, tMin, tMax float64) (demoted int) {
	if len(rays) > MaxPacketWidth {
		panic("kdtree: packet wider than MaxPacketWidth")
	}
	for l := range rays {
		ps.Hits[l] = Hit{T: math.Inf(1)}
		ps.Ok[l] = false
	}
	mask := ps.load(t, rays, tMin, tMax)
	if mask == 0 {
		for l := range rays {
			ps.Hits[l] = Hit{}
		}
		return 0
	}
	shared := sharedOrigin(rays)

	node := t.root
	active := mask
	sp := 0

	for {
		n := t.nodes[node]
		switch n.kind() {
		case kindInner:
			axis := int(n.axis())
			pos := n.pos
			swap, agree := ps.splitAgreement(active, axis, pos)
			if !agree {
				// Lanes disagree on which child is near: shared front-to-back
				// order no longer exists, so every active lane finishes this
				// subtree through the scalar core with its live state.
				for m := active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if faultinject.Active() {
						faultinject.Check(faultinject.SitePacketDemote, l)
					}
					ps.Hits[l], ps.Ok[l] = t.intersectFrom(rays[l], ps.inv[l], node, ps.cur0[l], ps.cur1[l], tMin, tMax, ps.Hits[l], ps.Ok[l])
					demoted++
				}
				break // pop the next pending subtree
			}
			near, far := node+1, n.right()
			if swap {
				near, far = far, near
			}
			e := ps.entry(sp)
			var nearM, farM uint32
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				bit := uint32(1) << uint(l)
				o := ps.org[l][axis]
				d := ps.dir[l][axis]
				if d == 0 {
					if o == pos {
						// In-plane lane: graze both children with the full
						// interval (see the scalar walk's in-plane case).
						farM |= bit
						e.t0[l] = ps.cur0[l]
						e.t1[l] = ps.cur1[l]
					}
					nearM |= bit
					continue
				}
				tSplit := (pos - o) * ps.idir[l][axis]
				slack := splitSlack(ps.cur0[l], ps.cur1[l])
				switch {
				case tSplit > ps.cur1[l]+slack || tSplit < 0:
					nearM |= bit
				case tSplit < ps.cur0[l]-slack:
					// Far-only: the lane keeps its whole interval but must
					// wait for the shared far visit.
					farM |= bit
					e.t0[l] = ps.cur0[l]
					e.t1[l] = ps.cur1[l]
				default:
					farM |= bit
					e.t0[l] = tSplit
					e.t1[l] = ps.cur1[l]
					nearM |= bit
					ps.cur1[l] = tSplit
				}
			}
			if farM != 0 {
				e.node = far
				e.mask = farM
				sp++
			}
			if nearM != 0 {
				node = near
				active = nearM
				continue
			}
			// All lanes went far-only; the entry just pushed is popped below.

		case kindLeaf:
			for i := n.triStart(); i < n.triStart()+n.triCount(); i++ {
				a, e1, e2 := &t.soa.a[i], &t.soa.e1[i], &t.soa.e2[i]
				ti := int(t.leafTris[i])
				if shared {
					for m := ps.originTri(rays, active, a, e1, e2, tMin, tMax); m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						if ps.th[l] < ps.Hits[l].T {
							ps.Hits[l] = Hit{T: ps.th[l], Tri: ti, U: ps.tu[l], V: ps.tv[l]}
							ps.Ok[l] = true
						}
					}
					continue
				}
				for m := active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					r := &rays[l]
					if th, u, v, hit := vecmath.IntersectRayPre(a, e1, e2, &r.Origin, &r.Dir, tMin, tMax); hit && th < ps.Hits[l].T {
						ps.Hits[l] = Hit{T: th, Tri: ti, U: u, V: v}
						ps.Ok[l] = true
					}
				}
			}

		case kindDeferred:
			// Expand once (shared latch), then run each lane through the
			// scalar deferred protocol: fresh best inside the subtree,
			// strict-< merge outside — the packet must not thread its
			// running best into the subtree or it would diverge from the
			// scalar walk's behaviour.
			d := &t.deferred[n.deferredIdx()]
			sub := t.expandDeferred(d)
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if h, hit := sub.intersectRange(rays[l], ps.inv[l], ps.cur0[l], ps.cur1[l], tMin, tMax); hit && h.T < ps.Hits[l].T {
					ps.Hits[l] = h
					ps.Ok[l] = true
				}
				demoted++
			}
		}

		// Pop the next pending far subtree. A lane rejoins only if the
		// subtree could still contain a closer hit (the scalar loop-top
		// early-out, applied per lane), picking up its stored interval.
		for {
			if sp == 0 {
				for l := range rays {
					if !ps.Ok[l] {
						ps.Hits[l] = Hit{}
					}
				}
				return demoted
			}
			sp--
			e := &ps.stack[sp]
			var next uint32
			for m := e.mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if ps.Ok[l] && ps.Hits[l].T < e.t0[l] {
					continue
				}
				next |= 1 << uint(l)
				ps.cur0[l] = e.t0[l]
				ps.cur1[l] = e.t1[l]
			}
			if next != 0 {
				node = e.node
				active = next
				break
			}
		}
	}
}

// OccludedPacket answers, for every ray in rays, whether any triangle
// blocks it within (tMin, tMax) — the shadow-packet analogue of
// Tree.Occluded, with verdicts in ps.Occ[l]. Lanes deactivate as soon as
// their verdict is known; the walk ends early once every lane is decided.
// Returns the number of lane-demotions, as IntersectPacket does.
//
//kdlint:hotpath
func (t *Tree) OccludedPacket(ps *PacketScratch, rays []vecmath.Ray, tMin, tMax float64) (demoted int) {
	if len(rays) > MaxPacketWidth {
		panic("kdtree: packet wider than MaxPacketWidth")
	}
	for l := range rays {
		ps.Occ[l] = false
	}
	// undecided holds lanes whose verdict is still open; entries popped off
	// the shared stack are masked against it so a lane occluded in one
	// subtree never traverses another.
	undecided := ps.load(t, rays, tMin, tMax)
	if undecided == 0 {
		return 0
	}

	node := t.root
	active := undecided
	sp := 0

	for {
		n := t.nodes[node]
		switch n.kind() {
		case kindInner:
			axis := int(n.axis())
			pos := n.pos
			swap, agree := ps.splitAgreement(active, axis, pos)
			if !agree {
				for m := active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					if faultinject.Active() {
						faultinject.Check(faultinject.SitePacketDemote, l)
					}
					if t.occludedFrom(rays[l], ps.inv[l], node, ps.cur0[l], ps.cur1[l], tMin, tMax) {
						ps.Occ[l] = true
						undecided &^= 1 << uint(l)
					}
					demoted++
				}
				if undecided == 0 {
					return demoted
				}
				break // pop
			}
			near, far := node+1, n.right()
			if swap {
				near, far = far, near
			}
			e := ps.entry(sp)
			var nearM, farM uint32
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				bit := uint32(1) << uint(l)
				o := ps.org[l][axis]
				d := ps.dir[l][axis]
				if d == 0 {
					if o == pos {
						farM |= bit
						e.t0[l] = ps.cur0[l]
						e.t1[l] = ps.cur1[l]
					}
					nearM |= bit
					continue
				}
				tSplit := (pos - o) * ps.idir[l][axis]
				slack := splitSlack(ps.cur0[l], ps.cur1[l])
				switch {
				case tSplit > ps.cur1[l]+slack || tSplit < 0:
					nearM |= bit
				case tSplit < ps.cur0[l]-slack:
					farM |= bit
					e.t0[l] = ps.cur0[l]
					e.t1[l] = ps.cur1[l]
				default:
					farM |= bit
					e.t0[l] = tSplit
					e.t1[l] = ps.cur1[l]
					nearM |= bit
					ps.cur1[l] = tSplit
				}
			}
			if farM != 0 {
				e.node = far
				e.mask = farM
				sp++
			}
			if nearM != 0 {
				node = near
				active = nearM
				continue
			}

		case kindLeaf:
			for i := n.triStart(); i < n.triStart()+n.triCount(); i++ {
				a, e1, e2 := &t.soa.a[i], &t.soa.e1[i], &t.soa.e2[i]
				for m := active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					r := &rays[l]
					if _, _, _, hit := vecmath.IntersectRayPre(a, e1, e2, &r.Origin, &r.Dir, tMin, tMax); hit {
						bit := uint32(1) << uint(l)
						ps.Occ[l] = true
						undecided &^= bit
						active &^= bit
					}
				}
				if active == 0 {
					break
				}
			}
			if undecided == 0 {
				return demoted
			}

		case kindDeferred:
			d := &t.deferred[n.deferredIdx()]
			sub := t.expandDeferred(d)
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if sub.occludedRange(rays[l], ps.inv[l], ps.cur0[l], ps.cur1[l], tMin, tMax) {
					ps.Occ[l] = true
					undecided &^= 1 << uint(l)
				}
				demoted++
			}
			if undecided == 0 {
				return demoted
			}
		}

		for {
			if sp == 0 {
				return demoted
			}
			sp--
			e := &ps.stack[sp]
			next := e.mask & undecided
			if next == 0 {
				continue
			}
			for m := next; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				ps.cur0[l] = e.t0[l]
				ps.cur1[l] = e.t1[l]
			}
			node = e.node
			active = next
			break
		}
	}
}
