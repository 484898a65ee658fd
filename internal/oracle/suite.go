package oracle

import (
	"fmt"
	"hash/fnv"
	"sort"

	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/scene"
)

// SceneOptions configures a full per-scene oracle run.
type SceneOptions struct {
	Options

	// Frame selects the animation frame (0 for static scenes).
	Frame int

	// WorkerCounts are the parallelism levels every builder is exercised
	// at; empty selects {1, 2, GOMAXPROCS}. Ray and structural oracles run
	// per (algorithm, workers) pair; serialized trees must additionally be
	// bitwise identical across the counts.
	WorkerCounts []int

	// Extras additionally checks the median builder (at the highest worker
	// count) and includes it in the pairwise cross-check.
	Extras bool

	// QueryBoxes/QueryPoints are the range/nearest-neighbor query budgets
	// for the kd-vs-bvh-vs-linear cross-check (defaults 24 and 48; the
	// check runs on one representative tree).
	QueryBoxes  int
	QueryPoints int
}

// SceneReport summarizes what a CheckScene run covered.
type SceneReport struct {
	Trees   int // trees built and checked
	Rays    int // rays in the oracle set
	HitRays int // rays whose brute-force result is a hit
}

func (so SceneOptions) normalized() SceneOptions {
	so.Options = so.Options.normalized()
	if len(so.WorkerCounts) == 0 {
		so.WorkerCounts = []int{1, 2, parallel.DefaultWorkers()}
	}
	sort.Ints(so.WorkerCounts)
	uniq := so.WorkerCounts[:0]
	for _, w := range so.WorkerCounts {
		if w < 1 || (len(uniq) > 0 && uniq[len(uniq)-1] == w) {
			continue
		}
		uniq = append(uniq, w)
	}
	so.WorkerCounts = uniq
	if so.QueryBoxes <= 0 {
		so.QueryBoxes = 24
	}
	if so.QueryPoints <= 0 {
		so.QueryPoints = 48
	}
	return so
}

// CheckScene runs the complete oracle battery for one scene frame: a single
// brute-force Reference is computed once, then every paper builder is built
// at every worker count and validated against it (ray + structural oracles),
// serialized bytes are required to be worker-invariant, the builders'
// highest-worker trees are cross-checked pairwise, and range/nearest
// queries are cross-checked against the BVH and a linear scan.
//
// The first failing check aborts the run and its error names the scene,
// builder and worker count.
func CheckScene(sc *scene.Scene, so SceneOptions) (SceneReport, error) {
	so = so.normalized()
	o := so.Options

	tris := sc.Triangles(so.Frame)
	bounds := BoundsOf(tris)
	rays := SceneRays(sc, so.Frame, bounds, o)
	tMin, tMax := defaultInterval()
	ref := NewReference(tris, rays, tMin, tMax, o)

	rep := SceneReport{Rays: len(rays), HitRays: ref.HitCount()}
	maxW := so.WorkerCounts[len(so.WorkerCounts)-1]

	type built struct {
		label string
		tree  *kdtree.Tree
	}
	var atMax []built

	check := func(cfg kdtree.Config, label string) (*kdtree.Tree, uint64, error) {
		tree := kdtree.Build(tris, cfg) //kdlint:noguard oracle builds must be raw and deterministic; a panic should fail the test loudly, not degrade
		rep.Trees++
		// Ray oracle first: on lazy trees this exercises on-demand
		// expansion during traversal before anything forces ExpandAll.
		if err := ref.CheckTree(tree, label); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", sc.Name, err)
		}
		h := fnv.New64a()
		if err := tree.Serialize(h); err != nil {
			return nil, 0, fmt.Errorf("%s/%s: serialize: %w", sc.Name, label, err)
		}
		params := sah.Params{CT: sah.FixedCT, CI: cfg.CI, CB: cfg.CB}
		if err := CheckStructure(tree, params); err != nil {
			return nil, 0, fmt.Errorf("%s/%s: %w", sc.Name, label, err)
		}
		return tree, h.Sum64(), nil
	}

	for _, algo := range kdtree.Algorithms {
		var wantSum uint64
		var wantW int
		for i, w := range so.WorkerCounts {
			cfg := kdtree.BaseConfig(algo)
			cfg.Workers = w
			label := fmt.Sprintf("%v/workers=%d", algo, w)
			tree, sum, err := check(cfg, label)
			if err != nil {
				return rep, err
			}
			if i == 0 {
				wantSum, wantW = sum, w
			} else if sum != wantSum {
				return rep, fmt.Errorf("oracle: %s/%v: serialized tree differs between workers=%d and workers=%d",
					sc.Name, algo, wantW, w)
			}
			if w == maxW {
				atMax = append(atMax, built{algo.String(), tree})
			}
		}
	}

	if so.Extras {
		cfg := kdtree.BaseConfig(kdtree.AlgoMedian)
		cfg.Workers = maxW
		label := fmt.Sprintf("%v/workers=%d", kdtree.AlgoMedian, maxW)
		tree, _, err := check(cfg, label)
		if err != nil {
			return rep, err
		}
		atMax = append(atMax, built{kdtree.AlgoMedian.String(), tree})
	}

	for i := 0; i < len(atMax); i++ {
		for j := i + 1; j < len(atMax); j++ {
			if err := CheckPairwise(atMax[i].tree, atMax[j].tree, atMax[i].label, atMax[j].label, rays, o); err != nil {
				return rep, fmt.Errorf("%s: %w", sc.Name, err)
			}
		}
	}

	// Packet-vs-scalar differential oracle: bitwise lane identity at every
	// packet width, on every builder's tree. The atMax lazy tree is already
	// fully expanded by the ray oracle above, so a fresh lazy tree joins
	// the check: its suspended nodes are first touched by packet traversal
	// itself, covering packet-triggered expansion.
	for _, b := range atMax {
		if err := CheckPackets(b.tree, b.label, rays, o); err != nil {
			return rep, fmt.Errorf("%s: %w", sc.Name, err)
		}
	}
	lazyCfg := kdtree.BaseConfig(kdtree.AlgoLazy)
	lazyCfg.Workers = maxW
	lazyFresh := kdtree.Build(tris, lazyCfg) //kdlint:noguard oracle builds must be raw and deterministic; a panic should fail the test loudly, not degrade
	rep.Trees++
	if err := CheckPackets(lazyFresh, "lazy/packet-first-touch", rays, o); err != nil {
		return rep, fmt.Errorf("%s: %w", sc.Name, err)
	}

	boxes := RandomBoxes(bounds, so.QueryBoxes, o.Seed+7)
	points := RandomPoints(bounds, so.QueryPoints, o.Seed+13)
	if err := CheckQueries(atMax[0].tree, boxes, points, o); err != nil {
		return rep, fmt.Errorf("%s/%s: %w", sc.Name, atMax[0].label, err)
	}
	return rep, nil
}
