package sah

import (
	"math"
	"math/rand"
	"testing"

	"kdtune/internal/vecmath"
)

func v(x, y, z float64) vecmath.Vec3 { return vecmath.V(x, y, z) }

func box(x0, y0, z0, x1, y1, z1 float64) vecmath.AABB {
	return vecmath.NewAABB(v(x0, y0, z0), v(x1, y1, z1))
}

func TestSplitCostMatchesEquation1(t *testing.T) {
	p := Params{CT: 10, CI: 17, CB: 10}
	node := box(0, 0, 0, 2, 1, 1)
	l, r := node.Split(vecmath.AxisX, 1)
	an, al, ar := node.SurfaceArea(), l.SurfaceArea(), r.SurfaceArea()
	// 3 primitives, 2 left, 2 right => one duplicate.
	got := p.SplitCost(an, al, ar, 2, 2, 3)
	want := 10 + al/an*2*17 + ar/an*2*17 + 1*10
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("SplitCost = %v, want %v", got, want)
	}
}

func TestLeafCostAndTermination(t *testing.T) {
	p := Params{CT: 10, CI: 5, CB: 0}
	if p.LeafCost(4) != 20 {
		t.Fatalf("LeafCost = %v", p.LeafCost(4))
	}
	if !p.ShouldTerminate(2, Split{Cost: 100}) {
		t.Fatal("cheap leaf should terminate")
	}
	if p.ShouldTerminate(100, Split{Cost: 100}) {
		t.Fatal("expensive leaf should split")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.CT != 10 || p.CI != 17 || p.CB != 10 {
		t.Fatalf("DefaultParams = %+v", p)
	}
}

// twoClusterPrims places two tight clusters of primitive boxes with a gap at
// x=5; the optimal split is obviously inside the gap.
func twoClusterPrims() (vecmath.AABB, []vecmath.AABB) {
	node := box(0, 0, 0, 10, 1, 1)
	var prims []vecmath.AABB
	for i := 0; i < 8; i++ {
		o := float64(i) * 0.1
		prims = append(prims, box(o, 0, 0, o+0.5, 1, 1))    // cluster near x=0
		prims = append(prims, box(9.5-o, 0, 0, 10-o, 1, 1)) // cluster near x=10
	}
	return node, prims
}

func TestSweepFindsGapSplit(t *testing.T) {
	node, prims := twoClusterPrims()
	p := DefaultParams()
	s, ok := FindBestSplitSweep(nil, p, node, prims, 1)
	if !ok {
		t.Fatal("no split found")
	}
	if s.Axis != vecmath.AxisX {
		t.Fatalf("split axis = %v, want X", s.Axis)
	}
	if s.Pos < 1.2 || s.Pos > 8.8 {
		t.Fatalf("split pos = %v, expected inside the gap", s.Pos)
	}
	if s.NL != 8 || s.NR != 8 {
		t.Fatalf("NL/NR = %d/%d, want 8/8", s.NL, s.NR)
	}
	if s.Cost >= p.LeafCost(len(prims)) {
		t.Fatalf("gap split (cost %v) should beat leaf cost %v", s.Cost, p.LeafCost(len(prims)))
	}
}

func TestBinnedFindsGapSplit(t *testing.T) {
	node, prims := twoClusterPrims()
	p := DefaultParams()
	s, ok := FindBestSplitBinned(p, node, prims, 32)
	if !ok {
		t.Fatal("no split found")
	}
	if s.Axis != vecmath.AxisX || s.Pos < 1.2 || s.Pos > 8.8 {
		t.Fatalf("binned split = %+v, expected X inside the gap", s)
	}
}

// bruteForceBestSplit enumerates every primitive-boundary candidate plane on
// every axis directly from the definition of equation (1).
func bruteForceBestSplit(p Params, node vecmath.AABB, prims []vecmath.AABB) (Split, bool) {
	best := Split{Cost: math.Inf(1)}
	found := false
	an := node.SurfaceArea()
	n := 0
	for _, b := range prims {
		if !b.IsEmpty() {
			n++
		}
	}
	for a := vecmath.AxisX; a <= vecmath.AxisZ; a++ {
		for _, b := range prims {
			if b.IsEmpty() {
				continue
			}
			for _, pos := range []float64{b.Min.Axis(a), b.Max.Axis(a)} {
				if pos <= node.Min.Axis(a) || pos >= node.Max.Axis(a) {
					continue
				}
				// Count left/right membership: a primitive overlaps the
				// left side if min < pos, right side if max > pos; planar
				// primitives (min==max==pos) go to the cheaper side.
				nl, nr, planar := 0, 0, 0
				for _, q := range prims {
					if q.IsEmpty() {
						continue
					}
					lo, hi := q.Min.Axis(a), q.Max.Axis(a)
					if lo == hi && lo == pos {
						planar++
						continue
					}
					if lo < pos {
						nl++
					}
					if hi > pos {
						nr++
					}
				}
				l, r := node.Split(a, pos)
				al, ar := l.SurfaceArea(), r.SurfaceArea()
				cL := p.SplitCost(an, al, ar, nl+planar, nr, n)
				cR := p.SplitCost(an, al, ar, nl, nr+planar, n)
				cost := math.Min(cL, cR)
				if cost < best.Cost {
					best = Split{Axis: a, Pos: pos, Cost: cost}
					found = true
				}
			}
		}
	}
	return best, found
}

func TestSweepMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	p := Params{CT: 10, CI: 17, CB: 10}
	for trial := 0; trial < 200; trial++ {
		node := box(0, 0, 0, 4+r.Float64()*6, 4+r.Float64()*6, 4+r.Float64()*6)
		n := 2 + r.Intn(20)
		prims := make([]vecmath.AABB, 0, n)
		for i := 0; i < n; i++ {
			c := v(r.Float64()*node.Max.X, r.Float64()*node.Max.Y, r.Float64()*node.Max.Z)
			d := v(r.Float64(), r.Float64(), r.Float64())
			b := vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
			if b.IsEmpty() {
				continue
			}
			prims = append(prims, b)
		}
		if len(prims) == 0 {
			continue
		}
		got, okG := FindBestSplitSweep(nil, p, node, prims, 1)
		want, okW := bruteForceBestSplit(p, node, prims)
		if okG != okW {
			t.Fatalf("trial %d: sweep found=%v brute found=%v", trial, okG, okW)
		}
		if !okG {
			continue
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9*(1+math.Abs(want.Cost)) {
			t.Fatalf("trial %d: sweep cost %v != brute cost %v (sweep %+v, brute %+v)",
				trial, got.Cost, want.Cost, got, want)
		}
	}
}

func TestSweepEmptySpaceCutoff(t *testing.T) {
	// A single small primitive in a huge node: the SAH should cut away the
	// empty space (split near the primitive boundary) rather than keep one
	// big leaf, when CI is high enough.
	node := box(0, 0, 0, 100, 1, 1)
	prims := []vecmath.AABB{box(0, 0, 0, 1, 1, 1)}
	p := Params{CT: 1, CI: 100, CB: 0}
	s, ok := FindBestSplitSweep(nil, p, node, prims, 1)
	if !ok {
		t.Fatal("no split found")
	}
	if s.Axis != vecmath.AxisX || math.Abs(s.Pos-1) > 1e-12 {
		t.Fatalf("expected empty-space split at x=1, got %+v", s)
	}
	if s.NL != 1 || s.NR != 0 {
		t.Fatalf("NL/NR = %d/%d, want 1/0", s.NL, s.NR)
	}
	if p.ShouldTerminate(1, s) {
		t.Fatal("empty-space split should be profitable here")
	}
}

func TestSweepNoCandidates(t *testing.T) {
	p := DefaultParams()
	if _, ok := FindBestSplitSweep(nil, p, box(0, 0, 0, 1, 1, 1), nil, 1); ok {
		t.Fatal("split found with no primitives")
	}
	// All primitive bounds coincide with node faces: no interior candidate.
	node := box(0, 0, 0, 1, 1, 1)
	prims := []vecmath.AABB{node, node}
	if s, ok := FindBestSplitSweep(nil, p, node, prims, 1); ok {
		t.Fatalf("split found with face-only candidates: %+v", s)
	}
	// Empty boxes are ignored.
	if _, ok := FindBestSplitSweep(nil, p, node, []vecmath.AABB{vecmath.EmptyAABB()}, 1); ok {
		t.Fatal("split found with only empty boxes")
	}
}

func TestSweepCountsStraddlers(t *testing.T) {
	node := box(0, 0, 0, 2, 1, 1)
	prims := []vecmath.AABB{
		box(0, 0, 0, 0.8, 1, 1),
		box(0.5, 0, 0, 1.5, 1, 1), // straddles any plane between 0.8 and 1.2
		box(1.2, 0, 0, 2, 1, 1),
	}
	p := Params{CT: 10, CI: 17, CB: 0}
	s, ok := FindBestSplitSweep(nil, p, node, prims, 1)
	if !ok {
		t.Fatal("no split")
	}
	if s.NL+s.NR < len(prims) {
		t.Fatalf("NL+NR = %d < N = %d", s.NL+s.NR, len(prims))
	}
}

func TestHighCBAvoidsStraddlingSplits(t *testing.T) {
	// Three boxes overlapping any interior X plane plus a free plane on Y.
	node := box(0, 0, 0, 1, 1, 1)
	prims := []vecmath.AABB{
		box(0, 0.0, 0, 1, 0.3, 1),
		box(0, 0.35, 0, 1, 0.6, 1),
		box(0, 0.7, 0, 1, 1, 1),
	}
	p := Params{CT: 1, CI: 50, CB: 1000}
	s, ok := FindBestSplitSweep(nil, p, node, prims, 1)
	if !ok {
		t.Fatal("no split")
	}
	if s.Axis != vecmath.AxisY {
		t.Fatalf("expected duplication-free Y split, got %+v", s)
	}
	if s.NL+s.NR != len(prims) {
		t.Fatalf("expected no duplicates, NL+NR = %d", s.NL+s.NR)
	}
}

func TestBinSetMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	node := box(0, 0, 0, 10, 10, 10)
	prims := make([]vecmath.AABB, 500)
	for i := range prims {
		c := v(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		d := v(r.Float64(), r.Float64(), r.Float64())
		prims[i] = vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
	}
	p := DefaultParams()

	whole := NewBinSet(node, 32)
	for _, b := range prims {
		whole.Add(b)
	}

	partA, partB := NewBinSet(node, 32), NewBinSet(node, 32)
	for i, b := range prims {
		if i%2 == 0 {
			partA.Add(b)
		} else {
			partB.Add(b)
		}
	}
	partA.Merge(partB)

	if partA.Count() != whole.Count() {
		t.Fatalf("merged count %d != whole count %d", partA.Count(), whole.Count())
	}
	sWhole, okW := whole.BestSplit(p)
	sMerged, okM := partA.BestSplit(p)
	if okW != okM || sWhole != sMerged {
		t.Fatalf("merged best split %+v != whole %+v", sMerged, sWhole)
	}
}

func TestBinSetMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBinSet(box(0, 0, 0, 1, 1, 1), 16).Merge(NewBinSet(box(0, 0, 0, 1, 1, 1), 32))
}

func TestBinnedApproximatesSweep(t *testing.T) {
	// Binned cost at its chosen plane must be within a modest factor of the
	// sweep optimum on random scenes (binning only loses plane resolution).
	r := rand.New(rand.NewSource(32))
	p := DefaultParams()
	for trial := 0; trial < 50; trial++ {
		node := box(0, 0, 0, 10, 10, 10)
		n := 50 + r.Intn(200)
		prims := make([]vecmath.AABB, 0, n)
		for i := 0; i < n; i++ {
			c := v(r.Float64()*10, r.Float64()*10, r.Float64()*10)
			d := v(r.Float64()*0.5, r.Float64()*0.5, r.Float64()*0.5)
			b := vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
			if !b.IsEmpty() {
				prims = append(prims, b)
			}
		}
		sw, okS := FindBestSplitSweep(nil, p, node, prims, 1)
		bn, okB := FindBestSplitBinned(p, node, prims, 64)
		if !okS || !okB {
			continue
		}
		if bn.Cost < sw.Cost-1e-9 {
			t.Fatalf("trial %d: binned (%v) beat exact sweep (%v)?", trial, bn.Cost, sw.Cost)
		}
		if bn.Cost > sw.Cost*1.5+p.CT {
			t.Fatalf("trial %d: binned cost %v far above sweep %v", trial, bn.Cost, sw.Cost)
		}
	}
}

func TestBinnedDegenerateNode(t *testing.T) {
	p := DefaultParams()
	// Zero-extent node: no valid split, must not panic or divide by zero.
	flat := box(0, 0, 0, 0, 0, 0)
	if _, ok := FindBestSplitBinned(p, flat, []vecmath.AABB{flat}, 8); ok {
		t.Fatal("split found in zero-extent node")
	}
	// Planar node (zero extent on one axis only) still splits on others.
	plane := box(0, 0, 0, 1, 1, 0)
	prims := []vecmath.AABB{box(0, 0, 0, 0.2, 1, 0), box(0.8, 0, 0, 1, 1, 0)}
	if s, ok := FindBestSplitBinned(p, plane, prims, 8); ok && s.Axis == vecmath.AxisZ {
		t.Fatalf("split on zero-extent axis: %+v", s)
	}
}

func TestSweepWorkersEquivalence(t *testing.T) {
	// The parallel event sort must not change the chosen split.
	r := rand.New(rand.NewSource(33))
	node := box(0, 0, 0, 10, 10, 10)
	prims := make([]vecmath.AABB, 20000)
	for i := range prims {
		c := v(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		d := v(r.Float64()*0.3, r.Float64()*0.3, r.Float64()*0.3)
		prims[i] = vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
	}
	p := DefaultParams()
	seq, okS := FindBestSplitSweep(nil, p, node, prims, 1)
	par, okP := FindBestSplitSweep(nil, p, node, prims, 8)
	if okS != okP || seq != par {
		t.Fatalf("parallel sweep differs: %+v vs %+v", par, seq)
	}
}
