// Package dataflow holds kdlint's four CFG rules: ctxflow, atomics, locks
// and resource. A review of the serve layer found bugs that lived in the
// flow between call sites — a Builder leaked on one branch, a mutex held
// across a wait on a latch, a latch a panic could leave unpublished — and
// these rules make those shapes findings. Each rule is exported as its own
// lint.Rule under its own family name and scope (Config.Scopes).
//
// ctxflow, locks and resource analyze every function body, declared or
// literal, over its own cfg.Graph; atomics judges each package as a whole.
// The rules share one classifier of blocking operations (ctxflow and
// locks), one union-join forward fixpoint (locks and resource) and one set
// of object helpers; each rule keeps its own exemptions and messages.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"

	"kdtune/internal/lint"
	"kdtune/internal/lint/cfg"
)

// blockingFuncs are the calls ctxflow and locks treat as potentially
// blocking, as callee keys, beyond the built-in channel, select,
// time.Sleep and WaitGroup.Wait cases.
var blockingFuncs = []string{
	"kdtune/internal/kdtree.Builder.BuildGuarded",
	"kdtune/internal/render.RenderInto",
	"kdtune/internal/parallel.For",
	"kdtune/internal/parallel.ForChunks",
	"kdtune/internal/parallel.Pool.Wait",
}

// funcRule builds a rule that runs check on every function body, declared
// or literal, of each package in the family's scope.
func funcRule(name string, check func(*lint.Pass, cfg.Func)) lint.Rule {
	return lint.Rule{Name: name, Check: func(p *lint.Pass) {
		if !p.InScope(name) {
			return
		}
		for _, f := range p.Pkg.Files {
			for _, fn := range cfg.Functions(f) {
				check(p, fn)
			}
		}
	}}
}

// blockingOp names m when it can park the goroutine: a select without a
// default clause, a raw channel send or receive, time.Sleep,
// WaitGroup.Wait, or a call in blockingFuncs.
func blockingOp(info *types.Info, m ast.Node) (what string, ok bool) {
	switch m := m.(type) {
	case *ast.SelectStmt:
		for _, cl := range m.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				return "", false // default clause: a non-blocking poll
			}
		}
		return "select", true
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if m.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.CallExpr:
		switch key := lint.CalleeKey(lint.Callee(info, m)); {
		case key == "time.Sleep":
			return key, true
		case key == "sync.WaitGroup.Wait":
			return "WaitGroup.Wait", true
		case key != "" && slices.Contains(blockingFuncs, key):
			return key, true
		}
	}
	return "", false
}

// walkBlock visits the nodes of b in order, passing each with its index in
// b.Nodes. A select marker is passed as is; its clauses live in successor
// blocks. Every other node is walked with cfg.Shallow and each node under
// it is passed, except that select comm statements are skipped (the select
// is the blocking point) and goroutine launches are not entered (their
// bodies are functions of their own). op returns whether to descend.
func walkBlock(b *cfg.Block, comms map[ast.Node]bool, op func(i int, m ast.Node) bool) {
	for i, n := range b.Nodes {
		if comms[n] {
			continue
		}
		if _, ok := n.(*ast.SelectStmt); ok {
			op(i, n)
			continue
		}
		cfg.Shallow(n, func(m ast.Node) bool {
			_, isGo := m.(*ast.GoStmt)
			return !isGo && op(i, m)
		})
	}
}

// commStmts collects the comm statements of every select under body.
func commStmts(body *ast.BlockStmt) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, cl := range sel.Body.List {
				if comm := cl.(*ast.CommClause).Comm; comm != nil {
					out[comm] = true
				}
			}
		}
		return true
	})
	return out
}

// forward runs a forward may-analysis over g to its fixpoint and returns
// the facts on entry to each block. transfer applies one block to a copy
// of its entry facts. The join is a union by key: a fact live on any
// incoming edge is live, and the first value to arrive for a key is kept.
// When kill is non-nil, a fact it reports for the edge from b to
// b.Succs[si] does not flow along that edge.
func forward[V any](g *cfg.Graph, transfer func(*cfg.Block, map[string]V) map[string]V, kill func(b *cfg.Block, si int, v V) bool) []map[string]V {
	in := make([]map[string]V, len(g.Blocks))
	for i := range in {
		in[i] = map[string]V{}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			out := transfer(b, maps.Clone(in[b.Index]))
			for si, succ := range b.Succs {
				for k, v := range out {
					if _, ok := in[succ.Index][k]; ok || (kill != nil && kill(b, si, v)) {
						continue
					}
					in[succ.Index][k] = v
					changed = true
				}
			}
		}
	}
	return in
}

// objectOf resolves the variable an identifier (after parens) defines or
// uses; the blank identifier and every other expression resolve to nil.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// baseObject resolves the variable behind x or &x; field selectors and
// other shapes resolve to nil.
func baseObject(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// typeKey renders the named type behind t (pointers stripped) as
// "<pkgpath>.<Type>", or "" when t names no package-level type.
func typeKey(t types.Type) string {
	n := lint.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
