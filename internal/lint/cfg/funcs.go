package cfg

import "go/ast"

// Func is one analyzable function body: a declaration or a function
// literal. The dataflow rules analyze each body with its own graph —
// literals are not inlined into their enclosing function.
type Func struct {
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt
}

// Functions lists every function body in file, in source order: each
// declaration with a body, and each function literal (at any nesting
// depth) as its own entry.
func Functions(file *ast.File) []Func {
	var out []Func
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, Func{Decl: n, Body: n.Body})
			}
		case *ast.FuncLit:
			out = append(out, Func{Lit: n, Body: n.Body})
		}
		return true
	})
	return out
}

// PointOf locates the graph point whose node's source span contains n,
// preferring the smallest such span (so a statement inside a select
// clause resolves to its clause block, not the select marker). It
// reports false when n is outside every block node of this graph.
func (g *Graph) PointOf(n ast.Node) (Point, bool) {
	var best Point
	found := false
	for _, b := range g.Blocks {
		for i, node := range b.Nodes {
			if node.Pos() <= n.Pos() && n.End() <= node.End() {
				if !found || span(node) < span(best.Block.Nodes[best.Node]) {
					best = Point{Block: b, Node: i}
					found = true
				}
			}
		}
	}
	return best, found
}

func span(n ast.Node) int { return int(n.End() - n.Pos()) }
