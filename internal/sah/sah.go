// Package sah implements the Surface Area Heuristic cost model of the paper
// (§III-B) and the two split-search strategies the four builders rely on:
//
//   - an event sweep in the style of Wald & Havran ("On building fast
//     kd-trees for ray tracing"), which enumerates every candidate plane
//     defined by (clipped) primitive bounds and is exact up to the cost
//     model. The builders' sweep engine (internal/kdtree) costs each plane
//     with a NodeCost; FindBestSplitSweep is the per-node form it is
//     tested against, and
//   - a binned search in the style of the parallel builders (Choi et al.,
//     Danilewski et al.), which histograms primitive extents into a fixed
//     number of bins per axis and evaluates the SAH only at bin boundaries —
//     cheaper and embarrassingly parallel.
//
// The cost model is controlled by three parameters (Table I):
//
//	CT — cost of traversing an inner node (fixed to 10, §IV-A),
//	CI — cost of intersecting a triangle (tunable, τ_CI = [3, 101]),
//	CB — cost of duplicating a primitive  (tunable, τ_CB = [0, 60]).
//
// Equation (1):
//
//	SAH(h,b) = CT + P(l|b)·Nl·CI + P(r|b)·Nr·CI + (Nl+Nr−Nb)·CB
//
// Equation (2), the termination criterion: stop subdividing b when
// Nb·CI ≤ min_h SAH(h,b).
package sah

import (
	"math"

	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// FixedCT is the traversal cost the paper pins to an arbitrary value of 10;
// CI and CB are only meaningful relative to it (§IV-A).
const FixedCT = 10.0

// Params bundles the SAH cost parameters.
type Params struct {
	CT float64 // node traversal cost
	CI float64 // triangle intersection cost
	CB float64 // primitive duplication cost
}

// DefaultParams returns the paper's base configuration for the cost model:
// CT=10 with the manually crafted C_base values CI=17, CB=10.
func DefaultParams() Params { return Params{CT: FixedCT, CI: 17, CB: 10} }

// LeafCost returns the cost of intersecting all n primitives of a leaf,
// Nb·CI (left-hand side of equation 2).
func (p Params) LeafCost(n int) float64 { return float64(n) * p.CI }

// SplitCost evaluates equation (1) for a node with surface area areaNode
// split into halves with surface areas areaL/areaR holding nl/nr primitives,
// nb primitives total before the split. areaNode must be positive.
func (p Params) SplitCost(areaNode, areaL, areaR float64, nl, nr, nb int) float64 {
	return p.splitCost(1/areaNode, areaL, areaR, nl, nr, nb)
}

// splitCost is SplitCost given inv, the reciprocal of the node's surface
// area.
func (p Params) splitCost(inv, areaL, areaR float64, nl, nr, nb int) float64 {
	return p.CT +
		areaL*inv*float64(nl)*p.CI +
		areaR*inv*float64(nr)*p.CI +
		float64(nl+nr-nb)*p.CB
}

// Split describes the best subdividing plane found for a node.
type Split struct {
	Axis vecmath.Axis // axis the plane is orthogonal to
	Pos  float64      // plane position along Axis
	Cost float64      // SAH(h,b) of this plane, equation (1)
	NL   int          // primitives overlapping the left half (incl. duplicates)
	NR   int          // primitives overlapping the right half (incl. duplicates)
}

// ShouldTerminate applies equation (2): subdivision stops when intersecting
// everything in place is no more expensive than the best split.
func (p Params) ShouldTerminate(n int, best Split) bool {
	return p.LeafCost(n) <= best.Cost
}

// splitCandidateValid rejects planes coincident with the node boundary:
// they cannot separate anything and would allow non-terminating recursion.
func splitCandidateValid(node vecmath.AABB, axis vecmath.Axis, pos float64) bool {
	return pos > node.Min.Axis(axis) && pos < node.Max.Axis(axis)
}

// NodeCost costs the candidate planes of one node's event sweep. The terms
// equation (1) takes from the node alone (the reciprocal of its surface
// area, its faces and extents) are computed once, by Params.NodeCost; Plane
// costs one plane. The builders' sweep engine and FindBestSplitSweep both
// cost every plane through it, so the two searches pick bit-identical splits
// whenever they visit the same planes in the same order.
type NodeCost struct {
	p      Params
	lo, hi [3]float64 // the node's faces, indexed by axis
	ext    [3]float64 // the node's extents (its diagonal), indexed by axis
	inv    float64    // 1 / the node's surface area
	n      int        // primitives in the node
}

// NodeCost returns the plane cost of a node of n primitives, or false if the
// node has no surface area and so no plane to cost.
func (p Params) NodeCost(node vecmath.AABB, n int) (NodeCost, bool) {
	area := node.SurfaceArea()
	if area <= 0 {
		return NodeCost{}, false
	}
	d := node.Diagonal()
	return NodeCost{
		p:   p,
		lo:  [3]float64{node.Min.X, node.Min.Y, node.Min.Z},
		hi:  [3]float64{node.Max.X, node.Max.Y, node.Max.Z},
		ext: [3]float64{d.X, d.Y, d.Z},
		inv: 1 / area,
		n:   n,
	}, true
}

// Plane evaluates the candidate plane {axis = pos}: nl primitives start
// before pos, nr end after it, and nPlanar lie in the plane, which the split
// may send to either side (Wald–Havran: both placements are costed and the
// cheaper kept). Planes on the node's boundary are rejected. best is
// replaced only when the plane is strictly cheaper, so on a tie the earlier
// candidate wins; Plane reports whether it replaced best.
func (nc *NodeCost) Plane(best *Split, axis vecmath.Axis, pos float64, nl, nr, nPlanar int) bool {
	lo, hi := nc.lo[axis], nc.hi[axis]
	if !(pos > lo && pos < hi) {
		return false
	}
	// The halves' surface areas, exactly as node.Split(axis, pos) and
	// SurfaceArea compute them: pos lies strictly inside the node, so only
	// the extent along axis changes.
	el, er := nc.ext, nc.ext
	el[axis], er[axis] = pos-lo, hi-pos
	al := 2 * (el[0]*el[1] + el[1]*el[2] + el[2]*el[0])
	ar := 2 * (er[0]*er[1] + er[1]*er[2] + er[2]*er[0])
	cL := nc.p.splitCost(nc.inv, al, ar, nl+nPlanar, nr, nc.n)
	cR := nc.p.splitCost(nc.inv, al, ar, nl, nr+nPlanar, nc.n)
	cost, dl, dr := cL, nPlanar, 0
	if cR < cL {
		cost, dl, dr = cR, 0, nPlanar
	}
	if !(cost < best.Cost) {
		return false
	}
	*best = Split{Axis: axis, Pos: pos, Cost: cost, NL: nl + dl, NR: nr + dr}
	return true
}

// eventKind orders coincident events so that the sweep sees ends before
// planars before starts at the same plane position.
type eventKind uint8

const (
	eventEnd eventKind = iota
	eventPlanar
	eventStart
)

// event is one endpoint of a primitive's (clipped) extent along an axis.
type event struct {
	pos  float64
	kind eventKind
}

// FindBestSplitSweep is the per-node event-sweep split search over all
// three axes: it generates the node's events, sorts them, and sweeps them
// from scratch on every call. prims holds each primitive's bounds clipped to
// the node (empty boxes are ignored). It returns the minimum-cost split and
// false if no valid candidate plane exists. workers is the parallelism
// budget of the event sort.
//
// The builders do not call it: their sweep engine (internal/kdtree) sorts a
// subtree's events once and splices them into the children. This search is
// the reference that engine is tested against, as FindBestSplitBinned is
// for the binned search.
//
// cc is threaded into the parallel event sort. A canceled search returns
// (Split{}, false); callers must check cc before trusting even that. A nil
// cc is never canceled.
func FindBestSplitSweep(cc *parallel.Canceler, p Params, node vecmath.AABB, prims []vecmath.AABB, workers int) (Split, bool) {
	best := Split{Cost: math.Inf(1)}
	found := false
	n := 0
	for _, b := range prims {
		if !b.IsEmpty() {
			n++
		}
	}
	nc, ok := p.NodeCost(node, n)
	if !ok || n == 0 || cc.Canceled() {
		return best, false
	}

	events := make([]event, 0, 2*len(prims))
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		events = events[:0]
		for _, b := range prims {
			if b.IsEmpty() {
				continue
			}
			lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
			if lo == hi {
				events = append(events, event{lo, eventPlanar})
			} else {
				events = append(events, event{lo, eventStart}, event{hi, eventEnd})
			}
		}
		sortEvents(cc, events, workers)
		if cc.Canceled() {
			return Split{Cost: math.Inf(1)}, false
		}

		nl, nr := 0, n
		for i := 0; i < len(events); {
			pos := events[i].pos
			var pEnd, pPlanar, pStart int
			for i < len(events) && events[i].pos == pos && events[i].kind == eventEnd {
				pEnd++
				i++
			}
			for i < len(events) && events[i].pos == pos && events[i].kind == eventPlanar {
				pPlanar++
				i++
			}
			for i < len(events) && events[i].pos == pos && events[i].kind == eventStart {
				pStart++
				i++
			}

			// Primitives ending or lying exactly at pos leave the right set
			// before the plane at pos is evaluated.
			nr -= pEnd + pPlanar
			if nc.Plane(&best, axis, pos, nl, nr, pPlanar) {
				found = true
			}
			// Primitives starting or lying at pos belong to the left set for
			// all later planes.
			nl += pStart + pPlanar
		}
	}
	return best, found
}

// sortEvents orders events by (pos, kind) so the sweep sees ends before
// planars before starts at coincident positions.
func sortEvents(cc *parallel.Canceler, ev []event, workers int) {
	parallel.SortFunc(cc, ev, workers, func(a, b event) int {
		switch {
		case a.pos < b.pos:
			return -1
		case a.pos > b.pos:
			return 1
		}
		return int(a.kind) - int(b.kind)
	})
}
