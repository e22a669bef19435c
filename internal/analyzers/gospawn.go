package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoSpawn enforces the goroutine-lifecycle discipline of the live wire
// packages: every `go` statement in internal/pfsnet, internal/faults,
// internal/runner and internal/logstore must have a provable shutdown
// path — the spawned body (or a same-package callee reachable from it)
// must block on a channel (receive, send, select, range), join a
// sync.WaitGroup (Done/Wait), watch a context (ctx.Done()), or reach a
// close(ch) hook so an owner closing the channel releases it. Per-connection readers,
// writers and handlers make fire-and-forget goroutines cheap to write;
// this catches the class that leaks them. The heuristic proves liveness
// of a shutdown *path*, not its use — but a goroutine with no channel,
// context, or join anywhere in reach has no way to be stopped at all.
var GoSpawn = &Analyzer{
	Name: "gospawn",
	Doc:  "every go statement in internal/{pfsnet,faults,runner,logstore} must have a provable shutdown path",
	Run:  runGoSpawn,
}

// goSpawnPackages is the enforced surface: the packages that spawn
// long-lived goroutines against real sockets, timers, and fault plans.
var goSpawnPackages = map[string]bool{
	"repro/internal/pfsnet":   true,
	"repro/internal/faults":   true,
	"repro/internal/runner":   true,
	"repro/internal/logstore": true,
}

func runGoSpawn(pass *Pass) error {
	if !goSpawnPackages[pass.Pkg.Path()] {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkSpawn(pass, decls, g)
			return true
		})
	}
	return nil
}

// checkSpawn resolves the spawned callee and verifies a shutdown path.
func checkSpawn(pass *Pass, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) {
	sd := &shutdownScan{pass: pass, decls: decls, visited: map[*types.Func]bool{}}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if !sd.bodyHasShutdown(lit.Body, 0) {
			pass.Reportf(g.Pos(), "goroutine has no provable shutdown path: no channel op, select, WaitGroup join, context, or close hook reachable from the spawned body")
		}
		return
	}
	fn := calleeFunc(pass, g.Call)
	if fn == nil || decls[fn] == nil || decls[fn].Body == nil {
		pass.Reportf(g.Pos(), "goroutine spawns a callee this package cannot see into; give it a provable shutdown path (done channel, context, or close hook) or spawn a local wrapper that has one")
		return
	}
	if !sd.funcHasShutdown(fn, 0) {
		pass.Reportf(g.Pos(), "goroutine %s has no provable shutdown path: no channel op, select, WaitGroup join, context, or close hook reachable from the spawn site", fn.Name())
	}
}

// calleeFunc resolves a call's static callee, when it has one.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// shutdownScan proves shutdown paths through bounded same-package call
// chains.
type shutdownScan struct {
	pass    *Pass
	decls   map[*types.Func]*ast.FuncDecl
	visited map[*types.Func]bool
}

// maxShutdownDepth bounds the callee chase: readLoop → kill →
// close(c.dead) is depth 2; anything deeper should restructure.
const maxShutdownDepth = 3

func (sd *shutdownScan) funcHasShutdown(fn *types.Func, depth int) bool {
	if sd.visited[fn] {
		return false
	}
	decl := sd.decls[fn]
	if decl == nil || decl.Body == nil {
		return false
	}
	sd.visited[fn] = true
	return sd.bodyHasShutdown(decl.Body, depth)
}

// bodyHasShutdown scans one body (descending into nested literals —
// they run, inline or deferred, on this goroutine) for shutdown
// evidence, chasing same-package callees up to maxShutdownDepth.
func (sd *shutdownScan) bodyHasShutdown(body *ast.BlockStmt, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // channel receive
			}
		case *ast.SendStmt:
			found = true // send: an owner draining (or closing) releases us
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := sd.pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true // range over channel ends at close
				}
			}
		case *ast.CallExpr:
			if sd.callIsShutdown(n, depth) {
				found = true
			}
		}
		return !found
	})
	return found
}

// callIsShutdown classifies one call as shutdown evidence: close(ch),
// WaitGroup Done/Wait, ctx.Done(), or a same-package callee that has a
// shutdown path of its own.
func (sd *shutdownScan) callIsShutdown(call *ast.CallExpr, depth int) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "close" {
			if _, ok := sd.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
				return true
			}
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "Done" || name == "Wait" {
			if recvIsType(sd.pass, fun, "sync", "WaitGroup") {
				return true // joined by an owner's Wait
			}
			if name == "Done" && recvIsType(sd.pass, fun, "context", "Context") {
				return true
			}
		}
	}
	if depth >= maxShutdownDepth {
		return false
	}
	fn := calleeFunc(sd.pass, call)
	if fn == nil || sd.decls[fn] == nil {
		return false
	}
	return sd.funcHasShutdown(fn, depth+1)
}

// recvIsType reports whether sel's receiver resolves to the named type
// pkg.name (after one pointer deref).
func recvIsType(pass *Pass, sel *ast.SelectorExpr, pkg, name string) bool {
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == pkg && o.Name() == name
}
