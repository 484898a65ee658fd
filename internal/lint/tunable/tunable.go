// Package tunable flags hard-coded scheduling constants at the call sites
// PR 8 converted into registry tunables:
//
//	tunable.grain — an int literal (>= 2) in the grain position of a
//	                parallel dispatch (ForChunks, ChunkCount) or of the
//	                chunked binned SAH search. Grains are online-tuned through the tunable
//	                registry (kdtree.Config.ScatterGrain / BinGrain); an
//	                inline literal pins the schedule behind the tuner's
//	                back. The literals 0 and 1 stay legal — 0 selects the
//	                named default, 1 is the neutral "no grain floor" used
//	                by across-node dispatches that want one chunk per
//	                worker regardless of n.
//	tunable.bins  — an int literal (>= 2) in the bins position of
//	                sah.FindBestSplitBinned*. The bin count B is a
//	                registered tunable (kdtree.Config.Bins) that changes
//	                the resulting tree; a literal forks the search space
//	                away from the tuned vector.
//
// Only expressions built entirely from literals are flagged (4096, 1<<12);
// a named constant such as sah.DefaultBinGrain is the sanctioned spelling
// of a default, because it is the single value the registry registers.
//
// Escape with //kdlint:allow tunable.grain <reason> (or tunable.bins) when
// a site genuinely must not follow the tuned vector — e.g. a microbenchmark
// pinning one grain on purpose.
package tunable

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"kdtune/internal/lint"
)

// Rule returns the tunable rule.
func Rule() lint.Rule {
	return lint.Rule{
		Name:  "tunable",
		Doc:   "forbid hard-coded grain/bin literals at parallel dispatch and SAH split-search call sites",
		Check: check,
	}
}

// parallelGrainPos maps each grain-taking dispatch function of the parallel
// package to the argument index of its grain.
var parallelGrainPos = map[string]int{
	"ChunkCount": 2,
	"ForChunks":  3,
}

// sahArgPos maps the binned split-search entry points to the argument
// indices of their bins and grain parameters (-1 when absent).
var sahArgPos = map[string]struct{ bins, grain int }{
	"FindBestSplitBinned":       {bins: 3, grain: -1},
	"FindBestSplitBinnedChunks": {bins: 4, grain: 6},
}

func check(p *lint.Pass) {
	if !p.InTunableScope() || p.IsParallelPackage() {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(info, call)
			if fn == nil || lint.RecvTypeName(fn) != "" {
				return true
			}
			pkg, name := lint.FuncPkgPath(fn), fn.Name()
			switch pkg {
			case p.Cfg.ParallelPackage:
				if pos, ok := parallelGrainPos[name]; ok {
					checkArg(p, call, pos, "grain", "parallel."+name,
						"grains are registry tunables (Config.ScatterGrain, Config.BinGrain): thread the tuned value, pass 1 for no grain floor")
				}
			case p.Cfg.SAHPackage:
				if pos, ok := sahArgPos[name]; ok {
					checkArg(p, call, pos.bins, "bins", "sah."+name,
						"the SAH bin count B is a registry tunable (Config.Bins) that shapes the tree: thread the tuned value")
					checkArg(p, call, pos.grain, "grain", "sah."+name,
						"the binned-search grain is a registry tunable (Config.BinGrain): thread the tuned value, pass 0 for the named default")
				}
			}
			return true
		})
	}
}

// checkArg reports the argument at index pos of call when it is a literal
// integer >= 2 — a scheduling constant hard-coded past the registry.
func checkArg(p *lint.Pass, call *ast.CallExpr, pos int, kind, callee, fix string) {
	if pos < 0 || pos >= len(call.Args) {
		return
	}
	arg := call.Args[pos]
	v, ok := literalInt(p.Pkg.Info, arg)
	if !ok || v < 2 {
		return
	}
	p.Reportf("tunable."+kind, arg.Pos(),
		"hard-coded %s %d at %s: %s, or suppress with //kdlint:allow tunable.%s <reason>",
		kind, v, callee, fix, kind)
}

// literalInt reports whether e is a compile-time integer built only from
// literals — no named constant, variable, or call — and returns its value.
// sah.DefaultBinGrain is a constant too, but it arrives through an
// identifier and so stays legal.
func literalInt(info *types.Info, e ast.Expr) (int64, bool) {
	if !literalOnly(e) {
		return 0, false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// literalOnly reports whether e consists solely of integer literals and
// operators over them.
func literalOnly(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Kind == token.INT
	case *ast.ParenExpr:
		return literalOnly(x.X)
	case *ast.UnaryExpr:
		return literalOnly(x.X)
	case *ast.BinaryExpr:
		return literalOnly(x.X) && literalOnly(x.Y)
	}
	return false
}
