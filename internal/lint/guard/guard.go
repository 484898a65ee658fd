// Package guard checks the two call-site disciplines that PR 4's guarded
// builds depend on:
//
//	guard.cancel — every dispatch into the parallel substrate must thread a
//	               *parallel.Canceler. Every dispatch takes one as its first
//	               parameter; passing a literal nil creates an
//	               uninterruptible stretch: a guarded build's deadline or
//	               memory abort cannot fire until that dispatch drains.
//	               Pool.Spawn has no cancellation parameter, so every Spawn
//	               site must state (via //kdlint:nocancel) how its task
//	               observes cancellation.
//	guard.entry  — external code must enter tree construction through
//	               Builder.BuildGuarded, which converts worker panics,
//	               deadline and memory violations into a *BuildAborted
//	               instead of a crash or a runaway build.
//
// The runtime half of guard.cancel is the -tags parallelcheck assertion
// that a threaded Canceler is consulted at least once per dispatched chunk;
// the static rule guarantees a Canceler reaches the dispatch, the runtime
// check guarantees the substrate polls it.
package guard

import (
	"go/ast"
	"slices"

	"kdtune/internal/lint"
)

// Rule is the guard rule.
var Rule = lint.Rule{
	Name:  "guard",
	Check: check,
}

// rawBuildEntries are the functions and methods that start an unguarded
// build, as callee keys. Calls from outside the declaring package must
// use lint.GuardedEntry instead or carry a //kdlint:noguard pragma.
var rawBuildEntries = []string{
	"kdtune/internal/kdtree.Build",
	"kdtune/internal/kdtree.Builder.Build",
	"kdtune.Build",
}

// cancelDispatch is the set of dispatch functions whose first parameter is
// the *Canceler; passing literal nil defeats the discipline.
var cancelDispatch = map[string]bool{
	"For":           true,
	"ForChunks":     true,
	"ExclusiveScan": true,
	"SortFunc":      true,
}

func check(p *lint.Pass) {
	info := p.Pkg.Info
	callerPkg := p.Pkg.PkgPath()
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(info, call)
			if fn == nil {
				return true
			}
			pkg, recv, name := lint.FuncPkgPath(fn), lint.RecvTypeName(fn), fn.Name()

			// guard.cancel: dispatches into the parallel substrate. The
			// substrate's own internals are the allowlisted implementation.
			if pkg == lint.ParallelPackage && !p.IsParallelPackage() {
				switch {
				case recv == "" && cancelDispatch[name] && len(call.Args) > 0 && lint.IsNilIdent(info, call.Args[0]):
					p.Reportf("guard.cancel", call.Pos(),
						"parallel.%s threads a nil Canceler, which disables cancellation: pass the build's Canceler, or suppress with //kdlint:nocancel <why this cannot block an abort>",
						name)
				case recv == "Pool" && name == "Spawn":
					p.Reportf("guard.cancel", call.Pos(),
						"Pool.Spawn has no cancellation parameter: the spawned task must poll a Canceler itself; state how with //kdlint:nocancel <reason>")
				}
			}

			// guard.entry: raw build entries called from outside their
			// declaring package.
			if key := lint.CalleeKey(fn); pkg != callerPkg && slices.Contains(rawBuildEntries, key) {
				p.Reportf("guard.entry", call.Pos(),
					"unguarded build entry %s: external callers must use Builder.%s (panic containment, deadline, memory ceiling), or suppress with //kdlint:noguard <why an unguarded build is safe here>",
					key, lint.GuardedEntry)
			}
			return true
		})
	}
}
