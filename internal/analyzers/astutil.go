package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// exprKey renders a guardable expression (a chain of identifiers and
// field selections, e.g. "c.fs.m") to a canonical string so that a nil
// check and a later dereference of the same lexical expression can be
// matched up. Anything else — calls, indexes, type assertions — is not
// stably guardable and yields "".
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// parentMap records the syntactic parent of every node under the roots.
type parentMap map[ast.Node]ast.Node

func newParentMap(files []*ast.File) parentMap {
	pm := parentMap{}
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				pm[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return pm
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing n.
func (pm parentMap) enclosingFunc(n ast.Node) ast.Node {
	for p := pm[n]; p != nil; p = pm[p] {
		switch p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return p
		}
	}
	return nil
}

// condImpliesNonNil reports whether cond being true guarantees key !=
// nil: a `key != nil` comparison, possibly strengthened by && with
// anything else.
func condImpliesNonNil(cond ast.Expr, key string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condImpliesNonNil(c.X, key)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.NEQ:
			return nilCompare(c, key)
		case token.LAND:
			return condImpliesNonNil(c.X, key) || condImpliesNonNil(c.Y, key)
		}
	}
	return false
}

// condImpliesNil reports whether cond being true is only possible when
// key == nil holds in at least one disjunct — i.e. ¬cond guarantees
// key != nil for `key == nil` and for `key == nil || ...` chains.
func condImpliesNil(cond ast.Expr, key string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condImpliesNil(c.X, key)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.EQL:
			return nilCompare(c, key)
		case token.LOR:
			return condImpliesNil(c.X, key) || condImpliesNil(c.Y, key)
		}
	}
	return false
}

// nilCompare reports whether b compares the expression named key
// against the nil literal (either operand order).
func nilCompare(b *ast.BinaryExpr, key string) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (exprKey(b.X) == key && isNil(b.Y)) || (isNil(b.X) && exprKey(b.Y) == key)
}

// terminates reports whether stmt unconditionally leaves the enclosing
// block: return, branch (break/continue/goto), panic, or a block ending
// in one.
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(s.List); n > 0 {
			return terminates(s.List[n-1])
		}
	}
	return false
}

// blockList returns the statement list a child statement lives in, for
// the containers that hold statement lists.
func blockList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// nilGuarded reports whether the use of expression key at node n is
// dominated by a nil check: the use sits in the then-branch of an
// `if key != nil`, in the else-branch of an `if key == nil`, or after
// an `if key == nil { return/... }` early exit in an enclosing block.
// The walk stops at the enclosing function literal or declaration —
// guards outside a closure do not dominate code that runs later.
func nilGuarded(pm parentMap, n ast.Node, key string) bool {
	if key == "" {
		return false
	}
	child := n
	for p := pm[child]; p != nil; child, p = p, pm[p] {
		switch p := p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.IfStmt:
			if child == p.Body && condImpliesNonNil(p.Cond, key) {
				return true
			}
			if child == p.Else && condImpliesNil(p.Cond, key) {
				return true
			}
		default:
			list := blockList(p)
			if list == nil {
				continue
			}
			for _, stmt := range list {
				if stmt == child {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || ifs.Else != nil {
					continue
				}
				if condImpliesNil(ifs.Cond, key) && terminates(ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}

// packageFuncDecls indexes every function/method declaration in the
// package by its type-checker object, for callee resolution.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}
