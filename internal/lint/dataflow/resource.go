package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"

	"kdtune/internal/lint"
	"kdtune/internal/lint/cfg"
)

// Resource is a must-analysis over acquire/release protocols: a value
// bound from a declared Acquire call, or a latch built from a declared
// latch type, must be discharged on every path out of the function —
// normal returns and explicit panic edges alike. A review of the serve
// layer found both shapes in the wild: a pooled Builder leaked on one
// branch of the fallback ladder, and a singleflight latch a panic could
// leave unpublished, stranding every waiter parked on it.
//
// Obligations are discharged by:
//
//   - a Release call with the value as receiver or argument;
//   - for ConsumeOnStore specs, storing the value into a composite
//     literal or struct field, or returning it (ownership transferred);
//   - for ConsumeOnCall specs and all latches, passing the value as a
//     call argument (the callee now owes the release/publish);
//   - for latches, closing one of the latch's channel fields or calling
//     a declared Fill function on it;
//   - a deferred function that does any of the above (credited on every
//     exit, panic edges included; local closures invoked by the deferred
//     function are scanned one level deep, covering the
//     defer-publish-on-panic idiom).
//
// When the acquiring call also returns an error bound in the same
// assignment, the obligation is waived on the error path: the branch
// taken when that error is non-nil has no resource to release.
//
// Categories: resource.leak (acquired value not released on some path),
// resource.latch (latch not published on some path), resource.drop
// (acquire result discarded outright).
var Resource = funcRule("resource", resourceFunc)

// obligation is one live duty: release obj per spec (spec != nil) or
// publish obj per latch (latch != nil).
type obligation struct {
	obj   types.Object
	spec  *lint.ResourceSpec
	latch *lint.LatchSpec
	birth token.Pos
	// errObj, when non-nil, is the error bound by the acquiring
	// assignment; the obligation dies on the branch where it is non-nil.
	errObj types.Object
}

func (o *obligation) key() string {
	return fmt.Sprintf("%d", o.birth)
}

func resourceFunc(p *lint.Pass, fn cfg.Func) {
	info := p.Pkg.Info
	g := cfg.New(fn.Body, info)
	covered := deferCovered(p, fn, g)

	// An obligation live on any incoming path is live, except on the edge
	// where its acquiring call's error is non-nil.
	in := forward(g, func(b *cfg.Block, st map[string]*obligation) map[string]*obligation {
		return resourceTransfer(p, b, st, covered, false)
	}, func(b *cfg.Block, si int, o *obligation) bool {
		return killedOnEdge(info, b, si, o)
	})

	// One reporting sweep for drop findings (discarded acquire results).
	for _, b := range g.Blocks {
		resourceTransfer(p, b, maps.Clone(in[b.Index]), covered, true)
	}

	// Obligations alive at an exit leak. Report each once, at its birth.
	reported := map[string]bool{}
	for _, exit := range []*cfg.Block{g.Exit, g.Panic} {
		via := "an early return or fall-through"
		if exit == g.Panic {
			via = "a panic edge"
		}
		for _, o := range in[exit.Index] {
			if reported[o.key()] {
				continue
			}
			reported[o.key()] = true
			if o.latch != nil {
				p.Reportf("resource.latch", o.birth,
					"latch %s bound to %s is not published on every path out (%s escapes it); waiters would strand",
					o.latch.Type, o.obj.Name(), via)
			} else {
				p.Reportf("resource.leak", o.birth,
					"%s bound to %s does not reach a release on every path out (%s escapes it)",
					o.spec.Name, o.obj.Name(), via)
			}
		}
	}
}

// killedOnEdge reports whether o's error-waiver applies to the edge from
// b to its si-th successor: the branch taken when the acquiring call's
// error is non-nil carries no resource.
func killedOnEdge(info *types.Info, b *cfg.Block, si int, o *obligation) bool {
	if o.errObj == nil || b.Cond == nil {
		return false
	}
	be, ok := ast.Unparen(b.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var other ast.Expr
	switch o.errObj {
	case objectOf(info, be.X):
		other = be.Y
	case objectOf(info, be.Y):
		other = be.X
	default:
		return false
	}
	if !lint.IsNilIdent(info, other) {
		return false
	}
	switch be.Op {
	case token.NEQ: // err != nil: true edge (si 0) is the error path
		return si == 0
	case token.EQL: // err == nil: false edge (si 1) is the error path
		return si == 1
	}
	return false
}

// resourceTransfer runs one block over the live obligations st: births
// add obligations, discharges remove them. With report set it also emits
// resource.drop for discarded acquire results.
func resourceTransfer(p *lint.Pass, b *cfg.Block, st map[string]*obligation, covered map[types.Object]bool, report bool) map[string]*obligation {
	info := p.Pkg.Info
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.AssignStmt:
			discharge(p, st, n)
			births(p, st, n, covered)
		case *ast.ExprStmt:
			if report {
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if spec := acquireSpec(p, info, call); spec != nil {
						p.Reportf("resource.drop", call.Pos(),
							"result of %s acquire is discarded; the value can never be released", spec.Name)
					}
				}
			}
			discharge(p, st, n)
		case *ast.DeferStmt:
			// Deferred discharges are handled by deferCovered; the defer
			// statement itself neither births nor discharges here.
		default:
			discharge(p, st, n)
		}
	}
	return st
}

// births adds obligations for acquire-call and latch-literal bindings.
func births(p *lint.Pass, st map[string]*obligation, as *ast.AssignStmt, covered map[types.Object]bool) {
	info := p.Pkg.Info

	// Acquire call: resource in result 0, error (if any) in the last.
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			spec := acquireSpec(p, info, call)
			if spec == nil {
				return
			}
			obj := objectOf(info, as.Lhs[0])
			if obj == nil || covered[obj] {
				return
			}
			var errObj types.Object
			if last := objectOf(info, as.Lhs[len(as.Lhs)-1]); last != nil && len(as.Lhs) > 1 {
				if named, ok := last.Type().(*types.Named); ok && named.Obj().Name() == "error" {
					errObj = last
				}
			}
			o := &obligation{obj: obj, spec: spec, birth: obj.Pos(), errObj: errObj}
			st[o.key()] = o
			return
		}
	}

	// Latch literal: one obligation per bound composite literal.
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lt := latchSpec(p, info, rhs)
		if lt == nil {
			continue
		}
		obj := objectOf(info, as.Lhs[i])
		if obj == nil || covered[obj] {
			continue
		}
		o := &obligation{obj: obj, latch: lt, birth: obj.Pos()}
		st[o.key()] = o
	}
}

// acquireSpec returns the ResourceSpec whose Acquire list names the
// call's callee, or nil.
func acquireSpec(p *lint.Pass, info *types.Info, call *ast.CallExpr) *lint.ResourceSpec {
	key := lint.CalleeKey(lint.Callee(info, call))
	if key == "" {
		return nil
	}
	for i := range p.Cfg.Resources {
		if slices.Contains(p.Cfg.Resources[i].Acquire, key) {
			return &p.Cfg.Resources[i]
		}
	}
	return nil
}

// latchSpec returns the LatchSpec matching a composite-literal expression
// (&T{...} or T{...}), or nil.
func latchSpec(p *lint.Pass, info *types.Info, e ast.Expr) *lint.LatchSpec {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	key := typeKey(info.TypeOf(cl))
	for i := range p.Cfg.Latches {
		if p.Cfg.Latches[i].Type == key {
			return &p.Cfg.Latches[i]
		}
	}
	return nil
}

// discharge removes obligations the node settles: release calls, consume
// stores/returns/args, latch closes and fills.
func discharge(p *lint.Pass, st map[string]*obligation, n ast.Node) {
	if len(st) == 0 {
		return
	}
	info := p.Pkg.Info
	cfg.Shallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			dischargeCall(p, st, m)
			return true
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				removeIf(info, st, v, func(o *obligation) bool {
					return o.latch == nil && o.spec.ConsumeOnStore
				})
			}
			return true
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				removeIf(info, st, r, func(o *obligation) bool {
					return o.latch != nil || o.spec.ConsumeOnStore
				})
			}
			return true
		case *ast.AssignStmt:
			// A store into a field or element transfers ownership for
			// ConsumeOnStore specs (e.g. srv.tree = t). Plain local
			// rebinding does not.
			for i, lhs := range m.Lhs {
				if i >= len(m.Rhs) {
					break
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					removeIf(info, st, m.Rhs[i], func(o *obligation) bool {
						return o.latch == nil && o.spec.ConsumeOnStore
					})
				}
			}
			return true
		}
		return true
	})
}

// dischargeCall settles obligations a single call can: a declared release
// (receiver or argument), a latch close/fill, or an ownership-transferring
// argument pass.
func dischargeCall(p *lint.Pass, st map[string]*obligation, call *ast.CallExpr) {
	info := p.Pkg.Info
	callee := lint.Callee(info, call)
	key := lint.CalleeKey(callee)

	if x, ok := closeOperand(info, call); ok {
		removeIf(info, st, x, func(o *obligation) bool { return o.latch != nil })
		return
	}

	isRelease := func(o *obligation) bool {
		if o.latch != nil {
			return slices.Contains(o.latch.Fill, key)
		}
		return slices.Contains(o.spec.Release, key)
	}

	// Receiver: b.Release().
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		removeIf(info, st, sel.X, isRelease)
	}
	for _, a := range call.Args {
		removeIf(info, st, a, func(o *obligation) bool {
			if isRelease(o) {
				return true
			}
			// Ownership transfer: latches always, resources per spec.
			return o.latch != nil || o.spec.ConsumeOnCall
		})
	}
}

// removeIf drops every obligation whose object is the expression's base
// identifier and for which keep returns true.
func removeIf(info *types.Info, st map[string]*obligation, e ast.Expr, match func(*obligation) bool) {
	obj := baseObject(info, e)
	if obj == nil {
		return
	}
	for k, o := range st {
		if o.obj == obj && match(o) {
			delete(st, k)
		}
	}
}

// deferCovered collects the objects whose obligations a deferred function
// settles. The deferred callee's body is scanned directly; calls from it
// to local closures (publish := func(...){...}) are followed one level,
// which covers the defer-publish-on-panic idiom.
func deferCovered(p *lint.Pass, fn cfg.Func, g *cfg.Graph) map[types.Object]bool {
	info := p.Pkg.Info
	covered := map[types.Object]bool{}
	if len(g.Defers) == 0 {
		return covered
	}

	releases := releaseKeys(p)

	// Local closures by object, for one-level resolution.
	closures := map[types.Object]*ast.FuncLit{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
				if obj := objectOf(info, as.Lhs[i]); obj != nil {
					closures[obj] = lit
				}
			}
		}
		return true
	})

	// scan marks the discharging operations inside body.
	var scan func(n ast.Node, depth int)
	scan = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if x, ok := closeOperand(info, call); ok {
				if obj := baseObject(info, x); obj != nil {
					covered[obj] = true
				}
				return true
			}
			// A call to a local closure: follow one level.
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && depth == 0 {
				if lit := closures[info.Uses[id]]; lit != nil {
					scan(lit.Body, depth+1)
					return true
				}
			}
			if key := lint.CalleeKey(lint.Callee(info, call)); key == "" || !releases[key] {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if obj := baseObject(info, sel.X); obj != nil {
					covered[obj] = true
				}
			}
			for _, a := range call.Args {
				if obj := baseObject(info, a); obj != nil {
					covered[obj] = true
				}
			}
			return true
		})
	}

	for _, d := range g.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			scan(lit.Body, 0)
			continue
		}
		// defer obj.Release() / defer pool.Put(b): the call itself is the
		// discharging operation.
		scan(d.Call, 0)
		if id, ok := ast.Unparen(d.Call.Fun).(*ast.Ident); ok {
			if lit := closures[info.Uses[id]]; lit != nil {
				scan(lit.Body, 0)
			}
		}
	}
	return covered
}

// releaseKeys is the union of every Release and Fill callee key.
func releaseKeys(p *lint.Pass) map[string]bool {
	out := map[string]bool{}
	for i := range p.Cfg.Resources {
		for _, k := range p.Cfg.Resources[i].Release {
			out[k] = true
		}
	}
	for i := range p.Cfg.Latches {
		for _, k := range p.Cfg.Latches[i].Fill {
			out[k] = true
		}
	}
	return out
}

// closeOperand reports whether call is the builtin close of one argument,
// and returns x when that argument is a field x.f (nil otherwise).
func closeOperand(info *types.Info, call *ast.CallExpr) (x ast.Expr, ok bool) {
	id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
	if !isIdent || id.Name != "close" || len(call.Args) != 1 {
		return nil, false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil, false
	}
	if sel, isSel := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); isSel {
		return sel.X, true
	}
	return nil, true
}
