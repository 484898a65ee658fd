// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, for the CFG rules in internal/lint/dataflow (ctxflow,
// locks, resource). Like the rest of kdlint it is stdlib-only: no
// golang.org/x/tools, just the parsed AST plus go/types for resolving the
// panic builtin.
//
// The graph is statement-granular. Each Block holds the atomic nodes that
// execute in it, in order; compound statements are decomposed, never stored
// wholesale, so a consumer that walks Block.Nodes sees every leaf statement
// exactly once. The decomposition covers:
//
//   - if/else, for, range, switch, type switch (incl. fallthrough)
//   - short-circuit && / || / ! inside branch conditions — the right-hand
//     operand gets its own block, so a call evaluated only on some paths is
//     only on those paths
//   - labeled break/continue and goto
//   - return edges to Exit, explicit panic(...) edges to Panic
//   - select: the SelectStmt itself is appended as a single marker node in
//     the block that blocks on it (consumers must not descend into it);
//     each comm clause's body becomes a successor block whose first node is
//     the clause's comm statement
//
// defer is recorded twice: the DeferStmt appears in its block (so forward
// analyses see where it is registered) and on Graph.Defers (so must-
// analyses can credit deferred releases to every exit path, including the
// panic edge).
//
// Nested function literals are NOT descended into — each function body,
// named or literal, gets its own graph. Walk with something like
// lint-rule-local logic that skips *ast.FuncLit.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	// Nodes are the atomic statements and condition expressions executed in
	// this block, in order. A *ast.SelectStmt node is a blocking-point
	// marker: its clause bodies live in successor blocks, so consumers must
	// not descend into it (helper: Shallow).
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Cond is set when the block ends branching on a boolean condition; by
	// convention Succs[0] is then the true edge and Succs[1] the false edge.
	Cond ast.Expr
}

// Graph is the CFG of one function body.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the normal exit: reached by return statements and by falling
	// off the end of the body.
	Exit *Block
	// Panic is the abnormal exit reached by explicit panic(...) calls. It
	// has no successors; deferred statements still run on paths into it.
	Panic *Block
	// Defers lists every defer statement in the body (outside nested
	// function literals), in source order.
	Defers []*ast.DeferStmt

	dom []big // dominator sets, indexed by Block.Index
}

// Point addresses one node inside the graph: Nodes[Node] of Block.
type Point struct {
	Block *Block
	Node  int
}

// builder state.
type build struct {
	g      *Graph
	cur    *Block
	info   *types.Info
	brk    []*target // break targets, innermost last
	cont   []*target // continue targets, innermost last
	label  string    // label of the statement about to be wired (set by LabeledStmt)
	labels map[string]*Block
	gotos  map[string][]*Block // unresolved forward gotos: label -> source blocks
}

type target struct {
	label string
	block *Block
}

// New builds the CFG of body. info may be nil; it is used only to recognise
// the predeclared panic builtin (without it, any call to an identifier
// named "panic" routes to the Panic exit).
func New(body *ast.BlockStmt, info *types.Info) *Graph {
	g := &Graph{}
	b := &build{g: g, info: info, labels: map[string]*Block{}, gotos: map[string][]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	g.Panic = b.newBlock()
	b.cur = g.Entry
	b.stmts(body.List)
	b.edge(b.cur, g.Exit)
	for label, srcs := range b.gotos {
		if dst := b.labels[label]; dst != nil {
			for _, s := range srcs {
				b.edge(s, dst)
			}
		}
	}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	g.computeDominators()
	return g
}

func (b *build) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *build) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *build) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// seal terminates the current block (after a return/panic/branch) and
// resumes in a fresh, initially unreachable block so trailing dead code
// still parses into the graph without inheriting edges.
func (b *build) seal() {
	b.cur = b.newBlock()
}

func (b *build) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *build) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		then := b.newBlock()
		merge := b.newBlock()
		els := merge
		if s.Else != nil {
			els = b.newBlock()
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmts(s.Body.List)
		b.edge(b.cur, merge)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, merge)
		}
		b.cur = merge

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, exit)
		} else {
			b.edge(b.cur, body)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.pushLoop(exit, post)
		b.cur = body
		b.stmts(s.Body.List)
		b.popLoop()
		if s.Post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		} else {
			b.edge(b.cur, head)
		}
		b.cur = exit

	case *ast.RangeStmt:
		b.addExpr(s.X)
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(b.cur, head)
		b.edge(head, body)
		b.edge(head, exit)
		b.pushLoop(exit, head)
		b.cur = body
		b.stmts(s.Body.List)
		b.popLoop()
		b.edge(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.addExpr(s.Tag)
		}
		b.caseClauses(s.Body.List, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.SelectStmt:
		head := b.cur
		b.add(s) // blocking-point marker; consumers must not descend
		merge := b.newBlock()
		b.pushBreak(merge)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmts(comm.Body)
			b.edge(b.cur, merge)
		}
		b.popBreak()
		if len(s.Body.List) == 0 {
			b.edge(head, merge)
		}
		b.cur = merge

	case *ast.LabeledStmt:
		blk := b.newBlock()
		b.edge(b.cur, blk)
		b.labels[s.Label.Name] = blk
		b.cur = blk
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = "" // a label on a non-loop statement must not leak to a later loop

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.add(s)
			if t := b.findTarget(b.brk, s.Label); t != nil {
				b.edge(b.cur, t)
			}
			b.seal()
		case token.CONTINUE:
			b.add(s)
			if t := b.findTarget(b.cont, s.Label); t != nil {
				b.edge(b.cur, t)
			}
			b.seal()
		case token.GOTO:
			b.add(s)
			name := s.Label.Name
			if dst := b.labels[name]; dst != nil {
				b.edge(b.cur, dst)
			} else {
				b.gotos[name] = append(b.gotos[name], b.cur)
			}
			b.seal()
		case token.FALLTHROUGH:
			// handled structurally in caseClauses
			b.add(s)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.seal()

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if b.isPanic(s.X) {
			b.edge(b.cur, b.g.Panic)
			b.seal()
		}

	case nil:
		// nothing

	default:
		// assign, send, incdec, decl, go, empty, ...
		b.add(s)
	}
}

// caseClauses wires a (type) switch: every clause body is a block reachable
// from the current head; fallthrough chains a clause into the next one.
func (b *build) caseClauses(clauses []ast.Stmt, bodyOf func(*ast.CaseClause) []ast.Stmt) {
	head := b.cur
	merge := b.newBlock()
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	b.pushBreak(merge)
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, blocks[i])
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.addExpr(e)
		}
		body := bodyOf(cc)
		b.stmts(body)
		if fallsThrough(body) && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, merge)
		}
	}
	b.popBreak()
	if !hasDefault || len(clauses) == 0 {
		b.edge(head, merge)
	}
	b.cur = merge
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// cond wires a branch condition from the current block to the true/false
// targets, decomposing short-circuit operators so each operand evaluates in
// its own block.
func (b *build) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	}
	b.add(e)
	b.cur.Cond = e
	b.cur.Succs = nil
	b.edge(b.cur, t)
	b.edge(b.cur, f)
	b.seal()
}

// addExpr appends a bare expression node (switch tags, range operands, case
// expressions) to the current block.
func (b *build) addExpr(e ast.Expr) {
	if e != nil {
		b.add(e)
	}
}

func (b *build) isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info == nil {
		return true
	}
	_, isBuiltin := b.info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// takeLabel consumes the label recorded by an immediately enclosing
// LabeledStmt, so labeled break/continue can find their statement.
func (b *build) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *build) pushLoop(brk, cont *Block) {
	label := b.takeLabel()
	b.brk = append(b.brk, &target{label: label, block: brk})
	b.cont = append(b.cont, &target{label: label, block: cont})
}

func (b *build) popLoop() {
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
}

func (b *build) pushBreak(blk *Block) {
	b.brk = append(b.brk, &target{label: b.takeLabel(), block: blk})
}

func (b *build) popBreak() {
	b.brk = b.brk[:len(b.brk)-1]
}

// findTarget resolves a break/continue target: the innermost enclosing one,
// or the one carrying the label.
func (b *build) findTarget(stack []*target, label *ast.Ident) *Block {
	if len(stack) == 0 {
		return nil
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return stack[len(stack)-1].block
}

// --- dominators ---

// big is a tiny bitset sized to the block count.
type big []uint64

func newBig(n int) big       { return make(big, (n+63)/64) }
func (v big) set(i int)      { v[i/64] |= 1 << (i % 64) }
func (v big) has(i int) bool { return v[i/64]&(1<<(i%64)) != 0 }
func (v big) copyFrom(o big) { copy(v, o) }

func (v big) intersect(o big) {
	for i := range v {
		v[i] &= o[i]
	}
}

func (v big) equal(o big) bool {
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// computeDominators runs the classic iterative dataflow: dom(entry) =
// {entry}; dom(b) = {b} ∪ ⋂ dom(preds). Graphs here are function bodies —
// tens of blocks — so the quadratic fixpoint is fine.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	g.dom = make([]big, n)
	all := newBig(n)
	for i := 0; i < n; i++ {
		all.set(i)
	}
	for i := range g.dom {
		g.dom[i] = newBig(n)
		if i == g.Entry.Index {
			g.dom[i].set(i)
		} else {
			g.dom[i].copyFrom(all)
		}
	}
	changed := true
	tmp := newBig(n)
	for changed {
		changed = false
		for _, blk := range g.Blocks {
			if blk == g.Entry {
				continue
			}
			tmp.copyFrom(all)
			reachable := false
			for _, p := range blk.Preds {
				tmp.intersect(g.dom[p.Index])
				reachable = true
			}
			if !reachable {
				// Unreachable blocks keep the full set; they dominate
				// nothing that matters.
				continue
			}
			tmp.set(blk.Index)
			if !tmp.equal(g.dom[blk.Index]) {
				g.dom[blk.Index].copyFrom(tmp)
				changed = true
			}
		}
	}
}

// Dominates reports whether point p executes on every path before point q:
// p's block strictly dominates q's, or they share a block and p comes
// first. Within one node (q.Node == p.Node) it reports false — callers that
// need sub-node ordering must split their points across nodes.
func (g *Graph) Dominates(p, q Point) bool {
	if p.Block == q.Block {
		return p.Node < q.Node
	}
	return g.dom[q.Block.Index].has(p.Block.Index)
}

// Shallow walks the leaf content of one block node: for a SelectStmt marker
// it visits nothing (the clauses live in successor blocks); for everything
// else it runs fn over the node but does not descend into nested function
// literals or select statements. fn's return value is the usual
// ast.Inspect continuation.
func Shallow(n ast.Node, fn func(ast.Node) bool) {
	if _, ok := n.(*ast.SelectStmt); ok {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			return false
		}
		return fn(m)
	})
}
