package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"

	"kdtune/internal/lint"
	"kdtune/internal/lint/cfg"
)

// Locks runs a may-held mutex analysis over each function's CFG and
// enforces two invariants:
//
//   - locks.blocked: no potentially blocking operation (see blockingOp)
//     while a sync.Mutex or RWMutex may be held. Parking a goroutine that
//     holds a lock starves every other waiter of that lock for the
//     duration of the park; with a latch in the cycle it is a deadlock
//     (the e.mu shape the serve layer's review fixed).
//
//   - locks.order: every observed nesting of lock classes must be
//     declared in Config.LockOrder as "outer<inner". Nesting that is
//     reversed or simply undeclared is flagged, so the sanctioned order
//     is a reviewed table in one place rather than folklore.
//
// A lock class is "<pkgpath>.<Type>.<field>" — the field holding the
// mutex. Held-ness is tracked per instance (the expression the mutex was
// locked through), so two instances of one class are distinct; order
// checks compare classes. Calls listed in Config.LockMethods acquire (and
// release) their class internally: they participate in order checks
// against the held set without extending it. A deferred Unlock does NOT
// release for this analysis — the lock is held to function exit, which is
// precisely the window locks.blocked polices.
var Locks = funcRule("locks", locksFunc)

// heldLock is one possibly-held mutex instance.
type heldLock struct {
	class string // lock class, "" when the instance has no named field
	pos   token.Pos
}

func locksFunc(p *lint.Pass, fn cfg.Func) {
	g := cfg.New(fn.Body, p.Pkg.Info)
	comms := commStmts(fn.Body)
	in := forward(g, func(b *cfg.Block, st map[string]heldLock) map[string]heldLock {
		return locksTransfer(p, b, st, comms, nil)
	}, nil)

	// Reporting pass with the converged entry states. Findings are
	// deduped: a node reachable with the same lock held along several
	// paths is one finding, not one per path.
	seen := map[string]bool{}
	report := func(rule string, pos token.Pos, msg string) {
		key := fmt.Sprintf("%s|%d|%s", rule, pos, msg)
		if !seen[key] {
			seen[key] = true
			p.Reportf(rule, pos, "%s", msg)
		}
	}
	for _, b := range g.Blocks {
		locksTransfer(p, b, in[b.Index], comms, report)
	}
}

// locksTransfer runs one block's nodes over the held set st. With report
// non-nil it also emits findings; the same function drives both the
// fixpoint and the reporting pass so they cannot diverge.
func locksTransfer(p *lint.Pass, b *cfg.Block, st map[string]heldLock, comms map[ast.Node]bool, report func(rule string, pos token.Pos, msg string)) map[string]heldLock {
	info := p.Pkg.Info
	emit := func(rule string, pos token.Pos, format string, args ...any) {
		if report != nil {
			report(rule, pos, fmt.Sprintf(format, args...))
		}
	}
	declared := func(outer, inner string) bool {
		return slices.Contains(p.Cfg.LockOrder, outer+"<"+inner)
	}
	orderCheck := func(pos token.Pos, class string) {
		if class == "" {
			return
		}
		for _, h := range st {
			outer := h.class
			if outer == "" || outer == class {
				if outer == class && !declared(outer, class) {
					emit("locks.order", pos,
						"acquires %s while another instance of the same class is held; self-nesting must be declared in LockOrder", class)
				}
				continue
			}
			switch {
			case declared(outer, class):
				// sanctioned
			case declared(class, outer):
				emit("locks.order", pos,
					"acquires %s while %s is held, reversing the declared order %q",
					class, outer, class+"<"+outer)
			default:
				emit("locks.order", pos,
					"undeclared lock nesting: %s acquired while %s is held; declare %q in LockOrder",
					class, outer, outer+"<"+class)
			}
		}
	}

	walkBlock(b, comms, func(_ int, m ast.Node) bool {
		if _, ok := m.(*ast.DeferStmt); ok {
			// Deferred calls run at exit; a deferred Unlock keeps the lock
			// held through the rest of the body for this analysis.
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			switch key := lint.CalleeKey(lint.Callee(info, call)); key {
			case "sync.Mutex.Lock", "sync.RWMutex.Lock", "sync.RWMutex.RLock":
				inst, class := mutexOperand(info, call)
				orderCheck(call.Pos(), class)
				if inst != "" {
					st[inst] = heldLock{class: class, pos: call.Pos()}
				}
			case "sync.Mutex.Unlock", "sync.RWMutex.Unlock", "sync.RWMutex.RUnlock":
				inst, _ := mutexOperand(info, call)
				delete(st, inst)
			default:
				if class, ok := p.Cfg.LockMethods[key]; ok {
					orderCheck(call.Pos(), class)
				}
			}
		}
		if what, ok := blockingOp(info, m); ok {
			for _, h := range st {
				name := h.class
				if name == "" {
					name = "a mutex"
				}
				lp := p.Pkg.Fset.Position(h.pos)
				emit("locks.blocked", m.Pos(), "%s while %s is held (locked at %s:%d)",
					what, name, filepath.Base(lp.Filename), lp.Line)
			}
		}
		return true
	})
	return st
}

// mutexOperand resolves the instance key and lock class of a Lock/Unlock
// receiver: for e.mu.Lock(), the instance is "e.mu" disambiguated by e's
// object, and the class is "<pkg>.<TypeOf e>.mu".
func mutexOperand(info *types.Info, call *ast.CallExpr) (instance, class string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	mutex := ast.Unparen(sel.X) // the mutex-valued expression
	instance = exprKey(info, mutex)
	if fsel, ok := mutex.(*ast.SelectorExpr); ok {
		if base := typeKey(info.TypeOf(fsel.X)); base != "" {
			class = base + "." + fsel.Sel.Name
		}
	}
	return instance, class
}

// exprKey renders a stable key for an ident/selector chain, anchored at
// the base identifier's object so shadowed names stay distinct. Other
// shapes key on their position (unique, so they never alias).
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return fmt.Sprintf("%s@%d", e.Name, obj.Pos())
		}
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(info, e.X) + "." + e.Sel.Name
	}
	return fmt.Sprintf("expr@%d", e.Pos())
}
