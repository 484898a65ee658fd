// Package hotpath checks that functions marked //kdlint:hotpath — the
// traversal and intersection kernels whose per-ray cost the autotuner's
// cost model measures — do not allocate inside their loops. The runtime
// half of this contract is the testing.AllocsPerRun zero-alloc tests; the
// static rule catches the allocation site at review time and names it,
// instead of failing a counter after the fact.
//
// One category, hotpath.alloc, flags AST-level allocation sites inside any
// loop of a marked function: make, new, append (may grow its backing
// array), slice/map composite literals, address-taken composite literals,
// and closure literals. Sites that are provably amortized (an append into a
// caller-provided buffer that reaches steady-state capacity) are suppressed
// in place with //kdlint:allow hotpath.alloc and a reason, keeping the
// amortization argument next to the code it justifies.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"kdtune/internal/lint"
)

// Rule is the hotpath rule.
var Rule = lint.Rule{
	Name:  "hotpath",
	Check: check,
}

func check(p *lint.Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !lint.HotpathMarked(fd) {
				continue
			}
			checkFunc(p, fd)
		}
	}
}

// checkFunc walks fd's body tracking loop depth and reports allocation
// sites at depth >= 1.
func checkFunc(p *lint.Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	name := fd.Name.Name
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
			switch s := n.(type) {
			case *ast.ForStmt:
				walkAll(s.Body, walk)
			case *ast.RangeStmt:
				walkAll(s.Body, walk)
			}
			depth--
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && depth > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new":
						p.Reportf("hotpath.alloc", n.Pos(),
							"%s allocates inside a loop of hot path %s: hoist the allocation out of the loop or into a reused buffer", b.Name(), name)
					case "append":
						p.Reportf("hotpath.alloc", n.Pos(),
							"append may grow its backing array inside a loop of hot path %s: preallocate capacity, or suppress with //kdlint:allow hotpath.alloc <amortization argument>", name)
					}
				}
			}
		case *ast.UnaryExpr:
			if depth > 0 && n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					p.Reportf("hotpath.alloc", n.Pos(),
						"address-taken composite literal allocates inside a loop of hot path %s: reuse a preallocated value", name)
					return false // don't double-report the literal itself
				}
			}
		case *ast.CompositeLit:
			if depth > 0 && compositeAllocates(info, n) {
				p.Reportf("hotpath.alloc", n.Pos(),
					"composite literal allocates inside a loop of hot path %s: reuse a preallocated value", name)
			}
		case *ast.FuncLit:
			if depth > 0 {
				p.Reportf("hotpath.alloc", n.Pos(),
					"closure literal allocates inside a loop of hot path %s: hoist it out of the loop", name)
			}
			return false // its own body is not this function's hot loop
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// walkAll continues the depth-tracking walk inside a loop body.
func walkAll(body *ast.BlockStmt, walk func(ast.Node) bool) {
	if body != nil {
		ast.Inspect(body, walk)
	}
}

// compositeAllocates reports whether lit heap-allocates by construction: a
// slice or map literal always does. Value struct and array literals are
// copies, not allocations; the address-taken case (&T{...}) is reported by
// the UnaryExpr check above.
func compositeAllocates(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[ast.Expr(lit)]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}
