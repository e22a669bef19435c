package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BufOwn enforces the pooled-buffer ownership contract of the vectored
// wire path (DESIGN §11): once a payload buffer is handed to a consumer
// — putBuf, the vectored writer's writeFrame, or a conn/Client call
// that takes ownership — the handing function must not touch it again.
// The consumer may recycle the buffer concurrently, so a use after the
// handoff is a use-after-free that the race detector only catches when
// the pool actually reissues the memory.
//
// The analyzer walks each function body with branch-aware, source-order
// dataflow: a handoff marks the buffer's expression dead, an assignment
// to it (including := and range rebinding) revives it, and if/else,
// switch, and select arms are tracked separately and merged (arms that
// terminate — return, break, continue, panic — do not leak their dead
// buffers past the join). Loop bodies are scanned twice so a handoff at
// the bottom of an iteration flags an un-rebound use at the top of the
// next. Deliberate exceptions carry //lint:allow bufown <reason>.
var BufOwn = &Analyzer{
	Name: "bufown",
	Doc:  "flag uses of a pooled payload buffer after its ownership was handed to the conn writer or pool",
	Run:  runBufOwn,
}

// bufOwnMethods maps (receiver type name, method name) to the index of
// the argument whose ownership transfers on the call. The set mirrors
// the contract points documented in DESIGN §11.
var bufOwnMethods = map[[2]string]int{
	{"vecWriter", "writeFrame"}: 2,
	{"conn", "call"}:            1,
	{"conn", "queue"}:           3,
	{"Client", "metaCall"}:      1,
}

// handoff records where a buffer's ownership left the function.
type handoff struct {
	pos token.Pos // end of the consuming call: uses beyond this are dead
	to  string    // consumer description for the report
}

// bufScan carries per-function state for one body sweep.
type bufScan struct {
	pass     *Pass
	reported map[token.Pos]bool // dedupe across loop-body re-scans
}

func runBufOwn(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				sc := &bufScan{pass: pass, reported: map[token.Pos]bool{}}
				sc.stmts(body.List, map[string]handoff{})
			}
			return true
		})
	}
	return nil
}

func copyHeld(h map[string]handoff) map[string]handoff {
	c := make(map[string]handoff, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// mergeBranch folds a branch's end state into the join state: a buffer
// is dead after the join if any branch that can fall through killed it.
func mergeBranch(join, branch map[string]handoff, terminated bool) {
	if terminated {
		return
	}
	for k, v := range branch {
		join[k] = v
	}
}

func (s *bufScan) stmts(list []ast.Stmt, held map[string]handoff) {
	for _, st := range list {
		s.stmt(st, held)
	}
}

func (s *bufScan) stmt(st ast.Stmt, held map[string]handoff) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.stmts(st.List, held)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	case *ast.ExprStmt:
		s.expr(st.X, held)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			s.expr(r, held)
		}
		for _, l := range st.Lhs {
			s.assignTo(l, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					s.expr(v, held)
				}
				for _, name := range vs.Names {
					s.assignTo(name, held)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.expr(r, held)
		}
	case *ast.IfStmt:
		s.stmt(st.Init, held)
		s.expr(st.Cond, held)
		then := copyHeld(held)
		s.stmts(st.Body.List, then)
		els := copyHeld(held)
		s.stmt(st.Else, els)
		clearAll(held)
		mergeBranch(held, then, terminates(st.Body))
		elseTerm := st.Else != nil && terminates(st.Else)
		mergeBranch(held, els, elseTerm)
	case *ast.SwitchStmt:
		s.stmt(st.Init, held)
		s.expr(st.Tag, held)
		s.caseArms(st.Body, held)
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init, held)
		s.stmt(st.Assign, held)
		s.caseArms(st.Body, held)
	case *ast.SelectStmt:
		s.caseArms(st.Body, held)
	case *ast.ForStmt:
		s.stmt(st.Init, held)
		s.expr(st.Cond, held)
		body := copyHeld(held)
		for pass := 0; pass < 2; pass++ { // second pass catches loop-carried uses
			s.stmts(st.Body.List, body)
			s.stmt(st.Post, body)
		}
		mergeBranch(held, body, false)
	case *ast.RangeStmt:
		s.expr(st.X, held)
		body := copyHeld(held)
		for pass := 0; pass < 2; pass++ {
			s.assignTo(st.Key, body) // rebinding revives the loop vars
			s.assignTo(st.Value, body)
			s.stmts(st.Body.List, body)
		}
		mergeBranch(held, body, false)
	case *ast.DeferStmt:
		// A deferred handoff runs at function exit: uses between here
		// and the return are fine, so scan the call as plain uses.
		s.expr(st.Call.Fun, held)
		for _, a := range st.Call.Args {
			s.expr(a, held)
		}
	case *ast.GoStmt:
		s.expr(st.Call, held)
	case *ast.SendStmt:
		s.expr(st.Chan, held)
		s.expr(st.Value, held)
	case *ast.IncDecStmt:
		s.expr(st.X, held)
	}
}

// caseArms scans each case/comm clause from the pre-switch state and
// merges the fall-through arms.
func (s *bufScan) caseArms(body *ast.BlockStmt, held map[string]handoff) {
	base := copyHeld(held)
	clearAll(held)
	exhaustive := false
	for _, cl := range body.List {
		arm := copyHeld(base)
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				s.expr(e, arm)
			}
			if cl.List == nil {
				exhaustive = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			s.stmt(cl.Comm, arm)
			stmts = cl.Body
		}
		s.stmts(stmts, arm)
		term := len(stmts) > 0 && terminates(stmts[len(stmts)-1])
		mergeBranch(held, arm, term)
	}
	if !exhaustive {
		// No default arm: the zero-case path carries the entry state.
		mergeBranch(held, base, false)
	}
}

func clearAll(held map[string]handoff) {
	for k := range held {
		delete(held, k)
	}
}

// assignTo revives the assigned expression (and everything reached
// through it) — after `b = nil` or `w = w.next` the old handoff no
// longer covers the name. Unkeyable targets (index expressions, derefs)
// count as uses instead.
func (s *bufScan) assignTo(l ast.Expr, held map[string]handoff) {
	if l == nil {
		return
	}
	k := exprKey(l)
	if k == "" {
		s.expr(l, held)
		return
	}
	for h := range held {
		if h == k || strings.HasPrefix(h, k+".") {
			delete(held, h)
		}
	}
}

func (s *bufScan) expr(e ast.Expr, held map[string]handoff) {
	switch e := e.(type) {
	case nil:
	case *ast.FuncLit:
		// Analyzed as its own body; captured buffers escape this
		// source-order model.
	case *ast.CallExpr:
		s.call(e, held)
	case *ast.Ident, *ast.SelectorExpr:
		s.use(e, held)
	case *ast.ParenExpr:
		s.expr(e.X, held)
	case *ast.StarExpr:
		s.expr(e.X, held)
	case *ast.UnaryExpr:
		s.expr(e.X, held)
	case *ast.BinaryExpr:
		s.expr(e.X, held)
		s.expr(e.Y, held)
	case *ast.IndexExpr:
		s.expr(e.X, held)
		s.expr(e.Index, held)
	case *ast.SliceExpr:
		s.expr(e.X, held)
		s.expr(e.Low, held)
		s.expr(e.High, held)
		s.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		s.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			s.expr(el, held)
		}
	case *ast.KeyValueExpr:
		s.expr(e.Value, held)
	}
}

// call scans a call expression, recording a handoff when it is one of
// the ownership-consuming calls.
func (s *bufScan) call(e *ast.CallExpr, held map[string]handoff) {
	idx, desc, ok := s.handoffArg(e)
	if !ok || idx >= len(e.Args) {
		s.expr(e.Fun, held)
		for _, a := range e.Args {
			s.expr(a, held)
		}
		return
	}
	s.expr(e.Fun, held)
	for i, a := range e.Args {
		if i != idx {
			s.expr(a, held)
		}
	}
	arg := e.Args[idx]
	k := exprKey(arg)
	if k == "" || k == "nil" || k == "_" {
		// putBuf(getBuf(n)), putBuf(nil), slices of something — the
		// argument has no stable name to track; scan it as a use.
		s.expr(arg, held)
		return
	}
	s.use(arg, held) // using an already-dead buffer as an argument counts
	held[k] = handoff{pos: e.End(), to: desc}
}

// handoffArg classifies e against the ownership-consuming call set,
// returning the consumed argument index and a description.
func (s *bufScan) handoffArg(e *ast.CallExpr) (int, string, bool) {
	switch fun := e.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "putBuf" {
			return 0, "", false
		}
		if obj, ok := s.pass.TypesInfo.Uses[fun].(*types.Func); !ok || obj == nil {
			return 0, "", false
		}
		return 0, "putBuf", true
	case *ast.SelectorExpr:
		fn, ok := s.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok {
			return 0, "", false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return 0, "", false
		}
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return 0, "", false
		}
		idx, ok := bufOwnMethods[[2]string{named.Obj().Name(), fn.Name()}]
		if !ok {
			return 0, "", false
		}
		return idx, named.Obj().Name() + "." + fn.Name(), true
	}
	return 0, "", false
}

// use reports e when its expression was handed off earlier on this
// path. One report per handoff: the key is revived after reporting so a
// single mistake does not cascade down the function.
func (s *bufScan) use(e ast.Expr, held map[string]handoff) {
	k := exprKey(e)
	if k == "" {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			s.expr(sel.X, held)
		}
		return
	}
	h, ok := held[k]
	if !ok {
		return
	}
	delete(held, k)
	if s.reported[e.Pos()] {
		return
	}
	s.reported[e.Pos()] = true
	s.pass.Reportf(e.Pos(), "%s used after its ownership was handed to %s (line %d); the consumer releases it — rebind or re-encode, or //lint:allow bufown <reason>",
		k, h.to, s.pass.Fset.Position(h.pos).Line)
}
