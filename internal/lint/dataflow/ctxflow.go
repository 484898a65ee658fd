package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"kdtune/internal/lint"
	"kdtune/internal/lint/cfg"
)

// Ctxflow checks that every blocking operation in a request-serving
// package is dominated by the request's context: the termination
// guarantee ("every admitted request terminates by its deadline") only
// holds if nothing on the request path can block past it. Three
// categories:
//
//   - ctxflow.block: a raw channel send/receive, a select with neither a
//     default nor a <-ctx.Done() case, a range over a channel, time.Sleep,
//     WaitGroup.Wait, or a blockingFuncs call that threads no Canceler.
//     None of these can observe the deadline, so each needs either a
//     context-aware rewrite or a //kdlint:noctx pragma explaining why it
//     cannot block (e.g. a buffered-semaphore token return).
//
//   - ctxflow.guard: a call to the kdtree Builder's lint.GuardedEntry whose
//     Guard argument does not trace to ctxGuardFunc — the build would not
//     abort when the request's deadline expires.
//
//   - ctxflow.link: a local Canceler handed to a dispatch or options
//     literal without a dominating ctxLinkFunc call on the same variable —
//     the kernel polls a flag nothing ever sets.
//
// The analysis is intraprocedural; a Canceler or Guard received as a
// parameter is trusted to have been linked by the caller (the rule fires
// where the value is created).
var Ctxflow = funcRule("ctxflow", ctxflowFunc)

const (
	// kdtreePackage hosts the Builder whose guarded entry ctxflow.guard
	// audits, and the Guard type that entry takes.
	kdtreePackage = "kdtune/internal/kdtree"
	// ctxGuardFunc derives a build Guard from a context.
	ctxGuardFunc = "kdtune/internal/kdtree.GuardFromContext"
	// ctxLinkFunc links a Canceler to a context.
	ctxLinkFunc = "kdtune/internal/parallel.LinkContext"
	// cancelerType is the cooperative-cancellation flag the parallel
	// substrate polls.
	cancelerType = "kdtune/internal/parallel.Canceler"
)

func ctxflowFunc(p *lint.Pass, fn cfg.Func) {
	info := p.Pkg.Info
	g := cfg.New(fn.Body, info)

	// Range statements are judged on the AST: the CFG decomposes them into
	// loop blocks and only their X expression survives as a node.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a separate function with its own graph
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					p.Reportf("ctxflow.block", n.X.Pos(),
						"range over a channel cannot observe the request deadline")
				}
			}
		}
		return true
	})

	comms := commStmts(fn.Body)
	for _, b := range g.Blocks {
		walkBlock(b, comms, func(i int, m ast.Node) bool {
			ctxflowVisit(p, fn, g, cfg.Point{Block: b, Node: i}, m)
			return true
		})
	}
}

// ctxflowVisit judges one node under a block node; pt is the block node's
// graph point, used for dominance queries by the guard and link checks.
func ctxflowVisit(p *lint.Pass, fn cfg.Func, g *cfg.Graph, pt cfg.Point, m ast.Node) {
	info := p.Pkg.Info
	switch m := m.(type) {
	case *ast.CallExpr:
		callee := lint.Callee(info, m)
		if callee != nil && callee.Name() == lint.GuardedEntry && lint.FuncPkgPath(callee) == kdtreePackage {
			checkGuardArg(p, fn, g, pt, m)
			return // the guard argument is what bounds the build
		}
		if key := lint.CalleeKey(callee); key != "" && key != ctxLinkFunc {
			for _, a := range m.Args {
				checkCancelerUse(p, fn, g, pt, a)
			}
		}
	case *ast.CompositeLit:
		// Canceler-typed values stored into literal fields, e.g.
		// render.Options{Cancel: &cc}.
		for _, el := range m.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			checkCancelerUse(p, fn, g, pt, el)
		}
	}

	what, ok := blockingOp(info, m)
	switch {
	case !ok:
	case what == "select":
		if !watchesContext(info, m.(*ast.SelectStmt)) {
			p.Reportf("ctxflow.block", m.Pos(),
				"select has neither a default nor a <-ctx.Done() case; it can block past the request deadline")
		}
	case what == "channel send" || what == "channel receive":
		p.Reportf("ctxflow.block", m.Pos(),
			"%s outside select cannot observe the request deadline", what)
	case what == "time.Sleep":
		p.Reportf("ctxflow.block", m.Pos(),
			"time.Sleep on a request path ignores the deadline; derive the wait from the context")
	case what == "WaitGroup.Wait":
		p.Reportf("ctxflow.block", m.Pos(),
			"WaitGroup.Wait cannot observe the request deadline")
	case !hasCancelArg(info, m.(*ast.CallExpr)):
		p.Reportf("ctxflow.block", m.Pos(),
			"%s can block past the request deadline and no Canceler is threaded", what)
	}
}

// watchesContext reports whether sel has a case receiving from a
// context's Done channel.
func watchesContext(info *types.Info, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		var recv ast.Expr
		switch c := cl.(*ast.CommClause).Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			continue
		}
		call, ok := ast.Unparen(ue.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		selx, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok && selx.Sel.Name == "Done" && typeKey(info.TypeOf(selx.X)) == "context.Context" {
			return true
		}
	}
	return false
}

// checkGuardArg verifies the Guard argument of a guarded-entry call traces
// to ctxGuardFunc: directly in the argument expression, through a
// variable whose dominating assignment derives it, or as a parameter the
// caller composed.
func checkGuardArg(p *lint.Pass, fn cfg.Func, g *cfg.Graph, pt cfg.Point, call *ast.CallExpr) {
	info := p.Pkg.Info
	var arg ast.Expr
	for _, a := range call.Args {
		if typeKey(info.TypeOf(a)) == kdtreePackage+".Guard" {
			arg = a
		}
	}
	if arg == nil {
		return // signature mismatch; nothing to judge
	}
	if containsCall(info, arg, ctxGuardFunc) {
		return
	}
	if obj := objectOf(info, arg); obj != nil && (isParam(info, fn, obj) || guardAssigned(info, g, pt, obj)) {
		return // composed by the caller, or by a dominating assignment
	}
	p.Reportf("ctxflow.guard", arg.Pos(),
		"guard for %s does not derive from %s; the build cannot abort on deadline expiry",
		lint.GuardedEntry, ctxGuardFunc)
}

// isCanceler reports whether e is a non-nil Canceler-typed value.
func isCanceler(info *types.Info, e ast.Expr) bool {
	return !lint.IsNilIdent(info, e) && typeKey(info.TypeOf(e)) == cancelerType
}

// checkCancelerUse requires a Canceler e that names a local variable to be
// a parameter (linked by the caller) or covered by a dominating
// ctxLinkFunc call on the same variable. A field or element is out of
// intraprocedural reach and passes.
func checkCancelerUse(p *lint.Pass, fn cfg.Func, g *cfg.Graph, pt cfg.Point, e ast.Expr) {
	info := p.Pkg.Info
	if !isCanceler(info, e) {
		return
	}
	obj := baseObject(info, e)
	if obj == nil || isParam(info, fn, obj) || dominatingLink(info, fn, g, pt, obj) {
		return
	}
	p.Reportf("ctxflow.link", e.Pos(),
		"Canceler %s reaches a dispatch without a dominating %s; the kernel polls a flag nothing sets",
		obj.Name(), ctxLinkFunc)
}

// dominatingLink reports whether a ctxLinkFunc call referencing obj sits
// at a point dominating pt within fn's body.
func dominatingLink(info *types.Info, fn cfg.Func, g *cfg.Graph, pt cfg.Point, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || lint.CalleeKey(lint.Callee(info, call)) != ctxLinkFunc || !mentionsObject(info, call, obj) {
			return true
		}
		if lp, ok := g.PointOf(call); ok && g.Dominates(lp, pt) {
			found = true
		}
		return !found
	})
	return found
}

// guardAssigned reports whether an assignment to obj whose RHS calls
// ctxGuardFunc dominates pt.
func guardAssigned(info *types.Info, g *cfg.Graph, pt cfg.Point, obj types.Object) bool {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for j, lhs := range as.Lhs {
				if objectOf(info, lhs) == obj && containsCall(info, as.Rhs[j], ctxGuardFunc) &&
					g.Dominates(cfg.Point{Block: b, Node: i}, pt) {
					return true
				}
			}
		}
	}
	return false
}

// mentionsObject reports whether any identifier under n resolves to obj.
func mentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// containsCall reports whether e contains a call to the function with the
// given callee key.
func containsCall(info *types.Info, e ast.Expr, key string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && lint.CalleeKey(lint.Callee(info, call)) == key {
			found = true
		}
		return !found
	})
	return found
}

// hasCancelArg reports whether any argument subtree carries a non-nil
// Canceler — directly or inside an options literal.
func hasCancelArg(info *types.Info, call *ast.CallExpr) bool {
	found := false
	for _, a := range call.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && !found {
				found = isCanceler(info, e)
			}
			return !found
		})
	}
	return found
}

// isParam reports whether obj is a parameter, named result or receiver of
// fn.
func isParam(info *types.Info, fn cfg.Func, obj types.Object) bool {
	var lists []*ast.FieldList
	if fn.Decl != nil {
		lists = []*ast.FieldList{fn.Decl.Recv, fn.Decl.Type.Params, fn.Decl.Type.Results}
	} else {
		lists = []*ast.FieldList{fn.Lit.Type.Params, fn.Lit.Type.Results}
	}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if info.Defs[name] == obj {
					return true
				}
			}
		}
	}
	return false
}
