// Package determinism checks the packages whose outputs must be
// bit-identical across runs and worker counts (Config.Scopes["determinism"]):
// the builders promise worker-count-independent trees, and the autotuner's
// cost model assumes repeated builds of the same scene measure the same
// work. Four categories:
//
//	determinism.time      — time.Now/Since/Until: wall-clock values must
//	                        not influence build decisions
//	determinism.rand      — math/rand global-source functions: unseeded
//	                        randomness; use rand.New(rand.NewSource(seed))
//	determinism.maprange  — ranging over a map: iteration order is
//	                        nondeterministic; sort keys, or suppress when
//	                        the loop provably commutes
//	determinism.goroutine — raw go statements outside the allowlisted
//	                        substrate: ad-hoc goroutines have no ordering
//	                        discipline; use internal/parallel primitives
package determinism

import (
	"go/ast"
	"go/types"

	"kdtune/internal/lint"
)

// Rule is the determinism rule.
var Rule = lint.Rule{
	Name:  "determinism",
	Check: check,
}

// randConstructors are the math/rand package-level functions that build an
// explicitly seeded generator rather than drawing from the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func check(p *lint.Pass) {
	if !p.InScope("determinism") {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := lint.Callee(info, n)
				if fn == nil {
					return true
				}
				name := fn.Name()
				switch lint.FuncPkgPath(fn) {
				case "time":
					if lint.RecvTypeName(fn) == "" && (name == "Now" || name == "Since" || name == "Until") {
						p.Reportf("determinism.time", n.Pos(),
							"time.%s in a determinism-scoped package: wall-clock values must not influence build decisions", name)
					}
				case "math/rand", "math/rand/v2":
					if lint.RecvTypeName(fn) == "" && !randConstructors[name] {
						p.Reportf("determinism.rand", n.Pos(),
							"math/rand.%s draws from the global source: seed explicitly with rand.New(rand.NewSource(seed)) so runs replay", name)
					}
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						p.Reportf("determinism.maprange", n.Pos(),
							"map iteration order is nondeterministic: collect and sort the keys first, or suppress when the loop body provably commutes")
					}
				}
			case *ast.GoStmt:
				if !p.IsParallelPackage() {
					p.Reportf("determinism.goroutine", n.Pos(),
						"raw go statement outside the parallel substrate: ad-hoc goroutines have no deterministic join or merge order; use internal/parallel primitives")
				}
			}
			return true
		})
	}
}
