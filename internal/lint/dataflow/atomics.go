package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"kdtune/internal/lint"
)

// Atomics enforces all-or-nothing atomicity per variable: a field or
// package-level variable accessed through sync/atomic anywhere in the
// package must be accessed atomically everywhere in it. A mixed site — a
// plain read racing atomic writers, or a plain write racing atomic
// readers — is exactly the bug class the Go memory model gives no
// guarantees about, and it stays silent until the race detector happens
// to schedule the two sides together.
//
// Identity is types.Object: two spellings of the same field (t.pending,
// ten.pending) resolve to one object. The typed wrappers (atomic.Int64,
// atomic.Bool, ...) make mixing impossible by construction; the rule
// exists for the pointer-based API, where nothing stops a later edit from
// writing x.n++ next to atomic.AddInt64(&x.n, 1).
//
// The defining declaration and the address-of expressions inside
// sync/atomic calls are exempt; everything else is a finding
// (atomics.mixed).
var Atomics = lint.Rule{
	Name:  "atomics",
	Check: checkAtomics,
}

func checkAtomics(p *lint.Pass) {
	if !p.InScope("atomics") {
		return
	}
	info := p.Pkg.Info

	// Pass 1: collect the objects whose address feeds a sync/atomic call,
	// and the identifiers making up those sanctioned accesses.
	atomicObjs := map[types.Object]token.Pos{} // object -> first atomic access
	sanctioned := map[*ast.Ident]bool{}        // idents inside atomic call arguments
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := lint.Callee(info, call)
			if lint.FuncPkgPath(callee) != "sync/atomic" {
				return true
			}
			for _, a := range call.Args {
				ue, ok := ast.Unparen(a).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				obj := accessedObject(info, ue.X)
				if obj == nil {
					continue
				}
				if _, seen := atomicObjs[obj]; !seen {
					atomicObjs[obj] = call.Pos()
				}
				markIdents(info, ue.X, obj, sanctioned)
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return
	}

	// Pass 2: every other use of those objects is a plain access.
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			first, tracked := atomicObjs[obj]
			if !tracked || sanctioned[id] {
				return true
			}
			pos := p.Pkg.Fset.Position(first)
			p.Reportf("atomics.mixed", id.Pos(),
				"%s is accessed atomically at %s:%d but plainly here; the Go memory model makes this a data race",
				obj.Name(), filepath.Base(pos.Filename), pos.Line)
			return true
		})
	}
}

// accessedObject resolves the variable behind an address-of operand:
// x (local or package var) or x.f / (*x).f (struct field).
func accessedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objectOf(info, e)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		// &xs[i]: element accesses have no stable object identity.
		return nil
	}
	return nil
}

// markIdents records the identifiers under e that resolve to obj, so the
// plain-access pass can skip the atomic call's own operand.
func markIdents(info *types.Info, e ast.Expr, obj types.Object, out map[*ast.Ident]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				out[id] = true
			}
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Obj() == obj {
				out[sel.Sel] = true
			}
		}
		return true
	})
}
