package kdtree

import (
	"errors"
	"fmt"
	"math"

	"kdtune/internal/parallel"
	"kdtune/internal/sah"
)

// Algorithm selects one of the paper's four parallel construction variants.
type Algorithm int

// The four construction algorithms of §IV.
const (
	AlgoNodeLevel Algorithm = iota // §IV-A node-level parallel
	AlgoNested                     // §IV-B nested parallel
	AlgoInPlace                    // §IV-C in-place (breadth-first) parallel
	AlgoLazy                       // §IV-D lazy construction
)

// Algorithms lists all four variants in paper order, for harness sweeps.
var Algorithms = []Algorithm{AlgoNodeLevel, AlgoNested, AlgoInPlace, AlgoLazy}

// String returns the name used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case AlgoNodeLevel:
		return "node-level"
	case AlgoNested:
		return "nested"
	case AlgoInPlace:
		return "in-place"
	case AlgoLazy:
		return "lazy"
	case AlgoMedian:
		return "median"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// HasR reports whether the algorithm uses the lazy resolution parameter R
// (Table Ib vs Table Ia).
func (a Algorithm) HasR() bool { return a == AlgoLazy }

// Config carries everything a build needs. The tunable fields mirror
// Table I:
//
//	CI — cost of intersecting a triangle        (τ_CI = [3, 101])
//	CB — cost of duplicating a primitive        (τ_CB = [0, 60])
//	S  — max. number of subtrees per thread     (τ_S  = [1, 8])
//	R  — minimal resolution of a node, lazy only (τ_R = [16, 8192], pow2)
//
// CT is fixed to 10 (§IV-A). The remaining fields configure the substrate
// rather than the cost model and are not tuned in the paper's experiments.
type Config struct {
	Algorithm Algorithm

	CI float64 // SAH triangle intersection cost
	CB float64 // SAH duplication cost
	S  int     // max subtrees per thread (task spawn budget)
	R  int     // lazy minimal node resolution (primitives)

	Workers int // parallelism budget; <=0 means GOMAXPROCS

	// Bins is the per-axis bin count for the binned split search used by
	// the nested, in-place and lazy variants; <2 selects sah.DefaultBins.
	Bins int

	// ScatterGrain is the minimum number of (triangle, node) pairs each
	// chunk of the in-place builder's classify and scatter passes handles;
	// <=0 selects DefaultScatterGrain. Tuned online (tunable "G"): the
	// break-even between fork-join overhead and chunk work is a property of
	// the machine, not of the algorithm. Any value yields the same tree —
	// scatter destinations come from per-chunk exclusive prefix offsets, so
	// item order is the sequential partition order for every chunk geometry.
	ScatterGrain int

	// BinGrain is the minimum number of primitives histogrammed per chunk
	// in the parallel binned split search; <=0 selects sah.DefaultBinGrain.
	// Tuned online (tunable "GB"); deterministic for the same reason the
	// worker count is — the histogram merge runs in ascending chunk order.
	BinGrain int

	// SplitBias biases parallel.SplitBudget toward within-node
	// parallelism in the in-place builder's frontier loops: each +1 halves
	// the outer (across-nodes) width and hands the freed budget to the
	// inner (within-node) loops. 0 is the neutral SplitBudget policy; the
	// registered tunable range is [0, 3]. Scheduling only — never affects
	// the tree.
	SplitBias int

	// MaxDepth caps recursion; <=0 selects the usual 8 + 1.3*log2(N).
	MaxDepth int

	// UseClipping enables Wald–Havran "perfect split" re-clipping of
	// triangles to node bounds during partitioning; when false, primitive
	// boxes are merely intersected with node bounds (cheaper, looser).
	UseClipping bool
}

// BaseConfig returns the paper's manually crafted base configuration
// C_base = (CI, CB, S, R) = (17, 10, 3, 2^12) for the given algorithm
// (§V-C), with substrate defaults filled in.
func BaseConfig(a Algorithm) Config {
	return Config{
		Algorithm: a,
		CI:        17,
		CB:        10,
		S:         3,
		R:         1 << 12,
	}
}

// Limits enforced by Validate and Clamped. The tuner's search ranges
// (Table II) are far inside these; the hard bounds exist so a corrupted or
// adversarial config cannot drive the builders into pathological regimes
// (depth blowup, worker explosion) before the Guard even gets a say.
const (
	maxConfigCI      = 1e6
	maxConfigCB      = 1e6
	maxConfigS       = 1024
	maxConfigR       = 1 << 24
	maxConfigWorkers = 4096
	// maxConfigDepth caps recursion outright. The traversal stack grows
	// dynamically past its fixed 64 entries, so deeper trees would work,
	// but nothing sensible lives beyond 128 levels — only runaway splits.
	maxConfigDepth = 128
	maxConfigBins  = 1 << 16
	maxConfigGrain = 1 << 24
	maxConfigBias  = 8
)

// DefaultScatterGrain is the default minimum chunk size of the in-place
// builder's classify/scatter passes, applied when Config.ScatterGrain <= 0.
const DefaultScatterGrain = 4096

// Validate reports every way the config is out of range. A nil error means
// the builders can run it as-is (after default filling). NaN and ±Inf cost
// parameters are rejected explicitly: a NaN CI would poison every SAH
// comparison (all comparisons false) and silently produce leaf-everything
// trees. Callers that want repair instead of rejection use Clamped.
func (c Config) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(!math.IsNaN(c.CI) && !math.IsInf(c.CI, 0), "CI %v is not finite", c.CI)
	check(!math.IsNaN(c.CB) && !math.IsInf(c.CB, 0), "CB %v is not finite", c.CB)
	check(!(c.CI < 0) && c.CI <= maxConfigCI, "CI %v outside [0, %v]", c.CI, float64(maxConfigCI))
	check(!(c.CB < 0) && c.CB <= maxConfigCB, "CB %v outside [0, %v]", c.CB, float64(maxConfigCB))
	check(c.S >= 0 && c.S <= maxConfigS, "S %d outside [0, %d]", c.S, maxConfigS)
	check(c.R >= 0 && c.R <= maxConfigR, "R %d outside [0, %d]", c.R, maxConfigR)
	check(c.Workers >= 0 && c.Workers <= maxConfigWorkers, "Workers %d outside [0, %d]", c.Workers, maxConfigWorkers)
	check(c.MaxDepth >= 0 && c.MaxDepth <= maxConfigDepth, "MaxDepth %d outside [0, %d]", c.MaxDepth, maxConfigDepth)
	check(c.Bins >= 0 && c.Bins <= maxConfigBins, "Bins %d outside [0, %d]", c.Bins, maxConfigBins)
	check(c.ScatterGrain >= 0 && c.ScatterGrain <= maxConfigGrain, "ScatterGrain %d outside [0, %d]", c.ScatterGrain, maxConfigGrain)
	check(c.BinGrain >= 0 && c.BinGrain <= maxConfigGrain, "BinGrain %d outside [0, %d]", c.BinGrain, maxConfigGrain)
	check(c.SplitBias >= 0 && c.SplitBias <= maxConfigBias, "SplitBias %d outside [0, %d]", c.SplitBias, maxConfigBias)
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("kdtree: invalid config: %w", errors.Join(errs...))
}

// Clamped returns the config with every out-of-range field pulled back to
// the nearest legal value (NaN falls to the field's default). Build and
// BuildGuarded apply it unconditionally, so a tuner probe or a deserialized
// config can never reach a builder out of range.
func (c Config) Clamped() Config {
	c.CI = clampFinite(c.CI, 0, maxConfigCI, 17)
	c.CB = clampFinite(c.CB, 0, maxConfigCB, 0)
	c.S = clampInt(c.S, 0, maxConfigS)
	c.R = clampInt(c.R, 0, maxConfigR)
	c.Workers = clampInt(c.Workers, 0, maxConfigWorkers)
	c.MaxDepth = clampInt(c.MaxDepth, 0, maxConfigDepth)
	c.Bins = clampInt(c.Bins, 0, maxConfigBins)
	c.ScatterGrain = clampInt(c.ScatterGrain, 0, maxConfigGrain)
	c.BinGrain = clampInt(c.BinGrain, 0, maxConfigGrain)
	c.SplitBias = clampInt(c.SplitBias, 0, maxConfigBias)
	return c
}

// clampFinite pulls v into [lo, hi]; NaN (incomparable with everything)
// falls to def.
func clampFinite(v, lo, hi, def float64) float64 {
	if math.IsNaN(v) {
		return def
	}
	return math.Min(math.Max(v, lo), hi)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// normalized fills defaults and clamps nonsense so builders can trust the
// values. Checks are written in negated form (!(x > 0) rather than x <= 0)
// so NaN — for which every comparison is false — lands on the default
// branch instead of slipping through.
func (c Config) normalized(numTris int) Config {
	if c.Workers <= 0 {
		c.Workers = parallel.DefaultWorkers()
	}
	if !(c.CI > 0) {
		c.CI = 17
	}
	if !(c.CB >= 0) {
		c.CB = 0
	}
	if c.S < 1 {
		c.S = 1
	}
	if c.R < 1 {
		c.R = 1 << 12
	}
	if c.ScatterGrain <= 0 {
		c.ScatterGrain = DefaultScatterGrain
	}
	if c.BinGrain <= 0 {
		c.BinGrain = sah.DefaultBinGrain
	}
	if c.SplitBias < 0 {
		c.SplitBias = 0
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8 + int(1.3*math.Log2(float64(numTris)+1))
	}
	if c.MaxDepth > maxConfigDepth {
		c.MaxDepth = maxConfigDepth
	}
	return c
}

// spawnDepth derives the task-spawning depth limit from S: spawning stops
// once the recursion can have produced at least S subtrees per worker, i.e.
// at the first depth d with 2^d >= S*Workers (§IV-A).
func (c Config) spawnDepth() int {
	target := c.S * c.Workers
	d := 0
	for (1 << d) < target {
		d++
	}
	return d
}
