// Package tunablefx is the tunable-rule fixture. It imports the real
// kdtune/internal/parallel and kdtune/internal/sah packages so the
// argument-position tables inside the rule are checked against genuine
// signatures; the test rescopes Config.Scopes["tunable"] onto this package.
package tunablefx

import (
	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

func literalGrains(cc *parallel.Canceler, xs []float64) {
	parallel.ForChunks(cc, len(xs), 4, 4096, func(_, lo, hi int) {})      // want `hard-coded grain 4096 at parallel\.ForChunks`
	parallel.ForChunks(cc, len(xs), 4, 1<<12, func(chunk, lo, hi int) {}) // want `hard-coded grain 4096 at parallel\.ForChunks`
	parallel.ForChunks(cc, len(xs), 4, 2048, func(_, lo, hi int) {})      // want `hard-coded grain 2048 at parallel\.ForChunks`
	parallel.ForChunks(cc, len(xs), 4, (256), func(chunk, lo, hi int) {}) // want `hard-coded grain 256 at parallel\.ForChunks`
	_ = parallel.ChunkCount(len(xs), 4, 512)                              // want `hard-coded grain 512 at parallel\.ChunkCount`
}

// neutralGrains: 0 and 1 are sentinels, not scheduling constants — 1 means
// "no grain floor" (across-node dispatch), 0 selects a named default.
func neutralGrains(cc *parallel.Canceler, xs []float64) {
	parallel.ForChunks(cc, len(xs), 4, 1, func(chunk, lo, hi int) {})
	parallel.ForChunks(cc, len(xs), 4, 0, func(_, lo, hi int) {})
	_ = parallel.ChunkCount(len(xs), 4, 1)
}

// threadedGrains: values arriving through a variable or a named constant are
// the sanctioned spellings — the registry owns the variable, the constant is
// the registered default.
func threadedGrains(cc *parallel.Canceler, xs []float64, grain int) {
	parallel.ForChunks(cc, len(xs), 4, grain, func(chunk, lo, hi int) {})
	parallel.ForChunks(cc, len(xs), 4, sah.DefaultBinGrain, func(_, lo, hi int) {})
}

func literalSAH(cc *parallel.Canceler, node vecmath.AABB, prims []vecmath.AABB) {
	p := sah.Params{CI: 17, CB: 10}
	_, _ = sah.FindBestSplitBinned(p, node, prims, 32)                                                              // want `hard-coded bins 32 at sah\.FindBestSplitBinned`
	_, _ = sah.FindBestSplitBinnedChunks(cc, p, node, len(prims), 64, 4, 2048, func(bs *sah.BinSet, lo, hi int) {}) // want `hard-coded bins 64 at sah\.FindBestSplitBinnedChunks` `hard-coded grain 2048 at sah\.FindBestSplitBinnedChunks`
	_, _ = sah.FindBestSplitBinnedChunks(cc, p, node, len(prims), 16, 4, 4096, func(bs *sah.BinSet, lo, hi int) {}) // want `hard-coded bins 16 at sah\.FindBestSplitBinnedChunks` `hard-coded grain 4096 at sah\.FindBestSplitBinnedChunks`
}

// tunedSAH threads every scheduling argument from variables (the registry's
// targets); the default-selecting grain 0 stays legal too.
func tunedSAH(cc *parallel.Canceler, node vecmath.AABB, prims []vecmath.AABB, bins, grain int) {
	p := sah.Params{CI: 17, CB: 10}
	_, _ = sah.FindBestSplitBinnedChunks(cc, p, node, len(prims), bins, 4, grain, func(bs *sah.BinSet, lo, hi int) {})
	_, _ = sah.FindBestSplitBinnedChunks(cc, p, node, len(prims), bins, 4, 0, func(bs *sah.BinSet, lo, hi int) {})
}

// suppressed shows the sanctioned escape hatch: a pinned grain with a reason.
func suppressed(xs []float64) {
	parallel.ForChunks(nil, len(xs), 4, 4096, func(_, lo, hi int) {}) //kdlint:allow tunable.grain fixture: microbenchmark pins one grain on purpose
}
