// Package arena checks pooled-arena alias hygiene in the packages that
// recycle build arenas (Config.Scopes["arena"]). An arena's slices are owned
// by the pool: after putArena they will be handed to another build and
// overwritten. An alias is therefore only safe while it provably stays
// inside the package, where the stack discipline of the builder scopes its
// lifetime. Two categories police the package's public surface:
//
//	arena.return — an exported function or method returns a slice/pointer
//	               derived from an arena field
//	arena.store  — an arena-derived slice/pointer is stored into a
//	               package-level variable or a field of an exported type,
//	               where it outlives the build that produced it
//
// The one legitimate crossing — Builder.finish retiring an arena from the
// pool and transferring ownership into the Tree — is documented at the site
// with //kdlint:allow arena.store, which is exactly the kind of
// load-bearing comment this rule exists to force.
package arena

import (
	"go/ast"
	"go/token"
	"go/types"

	"kdtune/internal/lint"
)

// Rule is the arena rule.
var Rule = lint.Rule{
	Name:  "arena",
	Check: check,
}

// arenaType is the package-local type whose fields are pooled storage: a
// slice or pointer derived from one of its fields must not cross the
// package's public surface.
const arenaType = "arena"

func check(p *lint.Pass) {
	if !p.InScope("arena") {
		return
	}
	info := p.Pkg.Info

	isArenaType := func(t types.Type) bool {
		n := lint.NamedOf(t)
		return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == p.Pkg.PkgPath() &&
			n.Obj().Name() == arenaType
	}

	// containsArenaSel reports whether e contains a selection of a slice-
	// or pointer-typed field off an arena-typed value. len/cap arguments
	// are skipped: they read a length, not an alias.
	containsArenaSel := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
						return false
					}
				}
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || found {
				return !found
			}
			xt, ok := info.Types[sel.X]
			if !ok || !isArenaType(xt.Type) {
				return true
			}
			if st, ok := info.Types[ast.Expr(sel)]; ok {
				switch st.Type.Underlying().(type) {
				case *types.Slice, *types.Pointer:
					found = true
				}
			}
			return !found
		})
		return found
	}

	// derives reports whether evaluating e yields an alias of arena
	// storage — the syntactic taint this AST-level rule tracks. The
	// expression must itself have alias-capable type (slice or pointer) or
	// be a composite literal carrying a tainted element; len(a.nodes) or
	// a.nodes[i] produce values, not aliases, and stay quiet. One hop only:
	// slicing and addressing keep the taint, passing through a variable
	// drops it, which keeps the rule quiet on the builder's legal internal
	// stack-discipline windows.
	var derives func(e ast.Expr) bool
	compositeDerives := func(cl *ast.CompositeLit) bool {
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if derives(elt) {
				return true
			}
		}
		return false
	}
	derives = func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if cl, ok := ast.Unparen(u.X).(*ast.CompositeLit); ok {
				return compositeDerives(cl)
			}
		}
		if cl, ok := e.(*ast.CompositeLit); ok {
			return compositeDerives(cl)
		}
		t := typeOf(info, e)
		if t == nil {
			return false
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Pointer:
			return containsArenaSel(e)
		}
		return false
	}

	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if recvIsArena(info, fd, isArenaType) {
				continue // the arena's own methods are the pooling machinery
			}
			exportedSurface := exportedFunc(info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ReturnStmt:
					if !exportedSurface {
						return true
					}
					for _, res := range n.Results {
						if derives(res) {
							p.Reportf("arena.return", res.Pos(),
								"%s returns a value aliasing pooled arena storage: the pool recycles it after the build; copy it out or return an owning structure", fd.Name.Name)
						}
					}
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if i >= len(n.Lhs) || !derives(rhs) {
							continue
						}
						switch lhs := n.Lhs[i].(type) {
						case *ast.Ident:
							if obj, ok := info.Uses[lhs].(*types.Var); ok && obj.Parent() == p.Pkg.Types.Scope() {
								p.Reportf("arena.store", n.Pos(),
									"package variable %s captures pooled arena storage, which outlives the build that filled it", lhs.Name)
							}
						case *ast.SelectorExpr:
							base := lint.NamedOf(typeOf(info, lhs.X))
							if base != nil && base.Obj().Exported() && !isArenaType(base) {
								p.Reportf("arena.store", n.Pos(),
									"field %s of exported type %s captures pooled arena storage: the pool recycles it; transfer ownership explicitly (and document with //kdlint:allow arena.store) or copy", lhs.Sel.Name, base.Obj().Name())
							}
						}
					}
				}
				return true
			})
		}
	}
}

// recvIsArena reports whether fd is a method on an arena type.
func recvIsArena(info *types.Info, fd *ast.FuncDecl, isArena func(types.Type) bool) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	return isArena(typeOf(info, fd.Recv.List[0].Type))
}

// exportedFunc reports whether fd is reachable from outside the package: an
// exported package-level function, or an exported method on an exported
// type.
func exportedFunc(info *types.Info, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	n := lint.NamedOf(typeOf(info, fd.Recv.List[0].Type))
	return n != nil && n.Obj().Exported()
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
