package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"kdtune/internal/sah"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// perNodeTree builds tris with the per-node reference: the node-level
// recursion with a fresh sort of every node's events (sah.FindBestSplitSweep)
// and partitionItems, serial and unguarded. The sweep engine must reproduce
// its trees exactly.
func perNodeTree(tris []vecmath.Triangle, cfg Config) *Tree {
	b := NewBuilder()
	c := b.prepare(tris, cfg.Clamped().normalized(len(tris)))
	b.guard.arm(Guard{})
	defer b.guard.disarm()
	items, bounds := c.rootItems(&b.main)
	if len(items) == 0 {
		bounds = vecmath.AABB{}
	} else {
		perNodeRecurse(c, &b.main, items, bounds, 0)
	}
	return b.finish(bounds, len(tris))
}

func perNodeRecurse(c *buildCtx, a *arena, items []item, bounds vecmath.AABB, depth int) {
	split, ok := perNodeSplit(c, items, bounds, depth)
	if !ok {
		c.makeLeaf(a, items, depth)
		return
	}
	mark := a.markItems()
	lb, rb := bounds.Split(split.Axis, split.Pos)
	left, right := c.partitionItems(a, items, split.Axis, split.Pos, lb, rb)
	if len(left) == len(items) && len(right) == len(items) {
		a.releaseItems(mark)
		c.makeLeaf(a, items, depth)
		return
	}
	c.counters.noteInner()
	self := a.emitInner(split.Axis, split.Pos)
	perNodeRecurse(c, a, left, lb, depth+1)
	a.patchRight(self, int32(len(a.nodes)))
	perNodeRecurse(c, a, right, rb, depth+1)
	a.releaseItems(mark)
}

func perNodeSplit(c *buildCtx, items []item, bounds vecmath.AABB, depth int) (sah.Split, bool) {
	if len(items) <= 1 || depth >= c.cfg.MaxDepth {
		return sah.Split{}, false
	}
	boxes := make([]vecmath.AABB, len(items))
	for i := range items {
		boxes[i] = items[i].bounds
	}
	split, ok := sah.FindBestSplitSweep(nil, c.params, bounds, boxes, 1)
	if !ok || c.params.ShouldTerminate(len(items), split) {
		return sah.Split{}, false
	}
	return split, true
}

func TestSortOnceValidates(t *testing.T) {
	r := rand.New(rand.NewSource(110))
	tris := randomTriangles(r, 3000, 10, 0.2)
	for _, a := range Algorithms {
		if err := Build(tris, testConfig(a)).Validate(); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
}

func TestSortOnceTraversalMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	tris := randomTriangles(r, 800, 10, 0.25)
	tree := Build(tris, testConfig(AlgoNodeLevel))
	for i := 0; i < 400; i++ {
		o := vecmath.V(r.Float64()*20-5, r.Float64()*20-5, -4)
		ray := vecmath.NewRay(o, vecmath.V(r.NormFloat64()*0.3, r.NormFloat64()*0.3, 1))
		want, wantHit := bruteForceClosest(tris, ray, 1e-9, math.Inf(1))
		got, gotHit := tree.Intersect(ray, 1e-9, math.Inf(1))
		if wantHit != gotHit || (wantHit && math.Abs(got.T-want.T) > 1e-9*(1+want.T)) {
			t.Fatalf("sweep engine mismatch on ray %d", i)
		}
	}
}

// TestSortOnceMatchesPerNodeSweepTree: the engine sorts once per subtree,
// the reference at every node; the trees must be identical, node for node
// and leaf for leaf, with and without clipping.
func TestSortOnceMatchesPerNodeSweepTree(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	inputs := map[string][]vecmath.Triangle{
		"random":    randomTriangles(r, 2000, 10, 0.2),
		"large":     randomTriangles(r, 600, 10, 1.2),
		"planar":    planarSoup(),
		"duplicate": duplicateSoup(),
	}
	for name, tris := range inputs {
		for _, clip := range []bool{false, true} {
			cfg := testConfig(AlgoNodeLevel)
			cfg.UseClipping = clip
			if err := sameTree(perNodeTree(tris, cfg), Build(tris, cfg)); err != nil {
				t.Fatalf("%s clipping=%v: engine tree differs from the per-node reference: %v", name, clip, err)
			}
		}
	}
}

func TestSortOnceParallelDeterministicQuality(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	tris := randomTriangles(r, 2000, 10, 0.2)
	p := sah.DefaultParams()
	var trees []*Tree
	for _, workers := range []int{1, 4, 16} {
		cfg := testConfig(AlgoNodeLevel)
		cfg.Workers = workers
		trees = append(trees, Build(tris, cfg))
	}
	for i, tree := range trees[1:] {
		if err := sameTree(trees[0], tree); err != nil {
			t.Fatalf("tree %d differs from workers=1: %v", i+1, err)
		}
		if a, b := trees[0].SAHCost(p), tree.SAHCost(p); a != b {
			t.Fatalf("tree quality varies with worker count: %v vs %v", a, b)
		}
	}
}

func TestSortOnceWithClipping(t *testing.T) {
	r := rand.New(rand.NewSource(114))
	tris := randomTriangles(r, 500, 10, 1.2) // big straddling triangles
	cfg := testConfig(AlgoNodeLevel)
	cfg.UseClipping = true
	tree := Build(tris, cfg)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		o := vecmath.V(r.Float64()*24-7, r.Float64()*24-7, -6)
		ray := vecmath.NewRay(o, vecmath.V(r.NormFloat64()*0.1, r.NormFloat64()*0.1, 1))
		want, wantHit := bruteForceClosest(tris, ray, 1e-9, math.Inf(1))
		got, gotHit := tree.Intersect(ray, 1e-9, math.Inf(1))
		if wantHit != gotHit || (wantHit && math.Abs(got.T-want.T) > 1e-9*(1+want.T)) {
			t.Fatalf("clipped sweep engine mismatch on ray %d", i)
		}
	}
}

func TestSortOnceEdgeCases(t *testing.T) {
	// Empty, single triangle, coplanar grid.
	if tree := Build(nil, testConfig(AlgoNodeLevel)); tree == nil {
		t.Fatal("nil tree")
	}
	one := []vecmath.Triangle{vecmath.Tri(vecmath.V(0, 0, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0))}
	tree := Build(one, testConfig(AlgoNodeLevel))
	if _, ok := tree.Intersect(vecmath.NewRay(vecmath.V(0.2, 0.2, -1), vecmath.V(0, 0, 1)), 0, 10); !ok {
		t.Fatal("single-triangle hit missed")
	}
	var grid []vecmath.Triangle
	for i := 0; i < 8; i++ {
		x := float64(i)
		grid = append(grid, vecmath.Tri(vecmath.V(x, 0, 0), vecmath.V(x+1, 0, 0), vecmath.V(x, 1, 0)))
	}
	tree = Build(grid, testConfig(AlgoNodeLevel))
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepEngineMatchesReference checks the engine's two steps on random
// and adversarial box sets. The sweep over once-sorted lists must return
// sah.FindBestSplitSweep's split field for field. Splitting at every
// candidate plane must reproduce partitionItems's child lists, and each
// spliced child event list must equal a fresh sort of that child's events.
func TestSweepEngineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(115))
	box := func(x0, y0, z0, x1, y1, z1 float64) vecmath.AABB {
		return vecmath.AABB{Min: vecmath.V(x0, y0, z0), Max: vecmath.V(x1, y1, z1)}
	}
	node := box(0, 0, 0, 4, 4, 4)
	grid := func() float64 { return float64(r.Intn(5)) }
	var random, planar, coincident, duplicates, touching []vecmath.AABB
	for i := 0; i < 200; i++ {
		lo := vecmath.V(r.Float64()*3.5, r.Float64()*3.5, r.Float64()*3.5)
		random = append(random, vecmath.AABB{Min: lo, Max: lo.Add(vecmath.V(r.Float64()*0.5, r.Float64()*0.5, r.Float64()*0.5))})
	}
	for i := 0; i < 90; i++ {
		// Zero extent on one axis (or all three: points), on grid planes.
		b := box(grid(), grid(), grid(), 0, 0, 0)
		b.Max = b.Min.Add(vecmath.V(float64(r.Intn(2)), float64(r.Intn(2)), float64(r.Intn(2))))
		b.Max = b.Max.SetAxis(vecmath.Axis(i%3), b.Min.Axis(vecmath.Axis(i%3)))
		planar = append(planar, b.Intersect(node))
	}
	for i := 0; i < 120; i++ {
		lo := vecmath.V(grid(), grid(), grid())
		coincident = append(coincident, vecmath.AABB{Min: lo, Max: lo.Add(vecmath.V(1, 1, 1))}.Intersect(node))
	}
	for i := 0; i < 30; i++ {
		duplicates = append(duplicates, box(1, 1, 1, 2, 2, 2), box(1, 1, 1, 1, 2, 3))
	}
	duplicates = append(duplicates, box(0, 0, 0, 4, 1, 1), box(3, 3, 3, 3, 3, 3))
	for i := 0; i < 40; i++ {
		// Faces on the node boundary, and planar boxes lying in it.
		a := vecmath.Axis(i % 3)
		b := box(grid()/2, grid()/2, grid()/2, 2+grid()/2, 2+grid()/2, 2+grid()/2)
		if i%2 == 0 {
			b.Min = b.Min.SetAxis(a, 0)
		} else {
			b.Max = b.Max.SetAxis(a, 4)
		}
		if i%5 == 0 {
			b.Max = b.Max.SetAxis(a, b.Min.Axis(a))
		}
		touching = append(touching, b)
	}
	sets := []struct {
		name  string
		boxes []vecmath.AABB
	}{
		{"random", random},
		{"planar", planar},
		{"coincident", coincident},
		{"duplicates", duplicates},
		{"one item", []vecmath.AABB{box(1, 1, 1, 2, 3, 2)}},
		{"touching faces", touching},
	}
	for _, set := range sets {
		b := NewBuilder()
		c := b.prepare(nil, BaseConfig(AlgoNodeLevel).normalized(0))
		a := &b.main
		items := make([]item, len(set.boxes))
		for i, bx := range set.boxes {
			items[i] = item{int32(i), bx}
		}
		ev := c.sortedEvents(a, items, 1)
		got, gotOK := c.sweepEvents(items, ev, node)
		want, wantOK := sah.FindBestSplitSweep(nil, c.params, node, set.boxes, 1)
		if gotOK != wantOK || got != want {
			t.Errorf("%s: engine split %+v (%v), reference %+v (%v)", set.name, got, gotOK, want, wantOK)
		}

		planes := checkSplices(t, set.name, c, a, items, ev, node, 1)
		if planes == 0 && len(items) > 1 {
			t.Errorf("%s: no interior candidate plane exercised", set.name)
		}
	}
}

// TestSweepEngineSplicesClippedItems checks the splice under UseClipping,
// where any item's box can change: re-clipped items must get fresh events
// and every spliced list must equal a fresh sort.
func TestSweepEngineSplicesClippedItems(t *testing.T) {
	r := rand.New(rand.NewSource(116))
	tris := randomTriangles(r, 300, 10, 1.5)
	cfg := BaseConfig(AlgoNodeLevel)
	cfg.UseClipping = true
	b := NewBuilder()
	c := b.prepare(tris, cfg.normalized(len(tris)))
	a := &b.main
	items, bounds := c.rootItems(a)
	if checkSplices(t, "clipped", c, a, items, c.sortedEvents(a, items, 1), bounds, 7) == 0 {
		t.Fatal("no interior candidate plane exercised")
	}
}

// checkSplices splits items at every stride-th interior candidate plane of
// ev and requires partitionItems's child lists and, when the split makes
// progress, spliced child event lists equal to a fresh sort of each child's
// events. It returns the number of planes checked.
func checkSplices(t *testing.T, name string, c *buildCtx, a *arena, items []item, ev evLists, node vecmath.AABB, stride int) int {
	t.Helper()
	planes := 0
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		for i, e := range ev[axis] {
			pos := evPos(items, axis, e)
			if i%stride != 0 || !(pos > node.Min.Axis(axis) && pos < node.Max.Axis(axis)) {
				continue
			}
			planes++
			imark, emark := a.markItems(), a.markEvents()
			lb, rb := node.Split(axis, pos)
			left, right, lev, rev := c.splitEvents(a, items, ev, sah.Split{Axis: axis, Pos: pos}, lb, rb)
			wantL, wantR := c.partitionItems(a, items, axis, pos, lb, rb)
			if !slices.Equal(left, wantL) || !slices.Equal(right, wantR) {
				t.Fatalf("%s: split %v@%v: child items differ from partitionItems", name, axis, pos)
			}
			if len(left) < len(items) || len(right) < len(items) {
				for side, child := range []struct {
					items []item
					ev    evLists
				}{{left, lev}, {right, rev}} {
					fresh := c.sortedEvents(a, child.items, 1)
					for ax := range fresh {
						if !slices.Equal(child.ev[ax], fresh[ax]) {
							t.Fatalf("%s: split %v@%v: spliced child %d list %d differs from a fresh sort", name, axis, pos, side, ax)
						}
					}
				}
			}
			a.releaseEvents(emark)
			a.releaseItems(imark)
		}
	}
	return planes
}

// FuzzSweepEngine builds fuzzed triangle soups with the engine (node-level
// from the root, and nested and in-place, whose nodes this small all run
// the engine or its one-node sweep) and requires the per-node reference's
// tree exactly.
func FuzzSweepEngine(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	tri := vecmath.Tri(vecmath.V(0, 0, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0))
	f.Add([]byte{}, false, uint8(0))
	f.Add(fuzzSeedBytes(tri), true, uint8(1))
	f.Add(fuzzSeedBytes(
		vecmath.Tri(vecmath.V(2, 2, 2), vecmath.V(2, 2, 2), vecmath.V(2, 2, 2)),
		vecmath.Tri(vecmath.V(0, 0, 0), vecmath.V(1, 1, 1), vecmath.V(2, 2, 2)),
		tri,
	), false, uint8(2))
	f.Add(fuzzSeedBytes(
		vecmath.Tri(vecmath.V(nan, 0, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0)),
		vecmath.Tri(vecmath.V(inf, -inf, 0), vecmath.V(1, 0, 0), vecmath.V(0, 1, 0)),
		tri,
	), true, uint8(3))
	f.Add(fuzzSeedBytes(planarSoup()[:60]...), false, uint8(4))
	f.Add(fuzzSeedBytes(planarSoup()[100:140]...), true, uint8(5))
	f.Add(fuzzSeedBytes(duplicateSoup()[:56]...), false, uint8(6))
	r := rand.New(rand.NewSource(117))
	f.Add(fuzzSeedBytes(randomTriangles(r, 120, 4, 0.8)...), true, uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, clip bool, pick uint8) {
		tris := fuzzTriangles(data)
		algo := []Algorithm{AlgoNodeLevel, AlgoNested, AlgoInPlace}[int(pick)%3]
		cfg := testConfig(algo)
		cfg.Workers = 1 + int(pick/3)%4
		cfg.UseClipping = clip
		if err := sameTree(perNodeTree(tris, cfg), Build(tris, cfg)); err != nil {
			t.Fatalf("%v clipping=%v workers=%d: tree differs from the per-node reference: %v", algo, clip, cfg.Workers, err)
		}
	})
}

// TestSweepEventStorageBounded pins the engine's compact layout: after
// three warm builds at two workers, the event storage a Builder retains
// (event stacks plus the sweep's per-node scratch, capacities summed over
// the main arena and the free list) is no larger than the item stacks it
// retains.
func TestSweepEventStorageBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("scene-scale builds are slow under -short")
	}
	wood, sibenik := scene.WoodDoll().Triangles(0), scene.Sibenik().Triangles(0)
	for _, tc := range []struct {
		scene string
		tris  []vecmath.Triangle
		algo  Algorithm
	}{
		{"WoodDoll", wood, AlgoInPlace},
		{"WoodDoll", wood, AlgoNodeLevel},
		{"Sibenik", sibenik, AlgoNested},
	} {
		cfg := BaseConfig(tc.algo)
		cfg.Workers = 2
		b := NewBuilder()
		for i := 0; i < 3; i++ {
			b.Build(tc.tris, cfg)
		}
		var events, items int64
		for _, a := range append([]*arena{&b.main}, b.arenaFree...) {
			items += int64(cap(a.items)) * itemBytes
			events += int64(cap(a.events))*eventBytes +
				int64(cap(a.keys))*int64(unsafe.Sizeof(evKey{})) +
				int64(cap(a.slots)+cap(a.freshL)+cap(a.freshR))*int64(unsafe.Sizeof(uint32(0)))
		}
		t.Logf("%s %v: event storage %.2f MiB, item stacks %.2f MiB", tc.scene, tc.algo, float64(events)/(1<<20), float64(items)/(1<<20))
		if events > items {
			t.Errorf("%s %v: retained event storage %d B exceeds retained item stacks %d B", tc.scene, tc.algo, events, items)
		}
	}
}

// BenchmarkSortOnceVsPerNode contrasts the two Wald–Havran formulations on
// one worker: the sweep engine, which sorts once per subtree and splices
// the sorted events into the children (O(N log N)), against the per-node
// reference, which sorts every node's events afresh (O(N log² N)).
func BenchmarkSortOnceVsPerNode(b *testing.B) {
	tris := scene.Sponza().Triangles(0)
	cfg := BaseConfig(AlgoNodeLevel)
	cfg.Workers = 1
	b.Run("engine", func(b *testing.B) {
		bd := NewBuilder()
		for i := 0; i < b.N; i++ {
			bd.Build(tris, cfg)
		}
	})
	b.Run("per-node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perNodeTree(tris, cfg)
		}
	})
}
