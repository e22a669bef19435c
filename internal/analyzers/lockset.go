package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockEvent is one call in a function body, in source order: a mutex
// operation (mutex != nil) or any other call, which lockio classifies as
// I/O and lockorder resolves to a same-package callee.
type lockEvent struct {
	call   *ast.CallExpr
	mutex  ast.Expr // the operand of a sync.Mutex/RWMutex (R)Lock or (R)Unlock; nil for other calls
	unlock bool
	until  token.Pos // deferred unlock: the lock stays held up to this position
}

// lockEvents is the lock sweep lockio and lockorder share. It collects
// the calls of body in source order, skipping go statements and function
// literals: neither runs on this goroutine's schedule.
//
// One defer rule: a deferred unlock releases its lock at the end of the
// enclosing block when that block terminates (so `if x { mu.Lock();
// defer mu.Unlock(); return }` does not hold mu over the code below) and
// at function end otherwise (`if x { mu.Lock(); defer mu.Unlock() }`
// holds mu over everything after the branch).
func lockEvents(pass *Pass, body *ast.BlockStmt) []lockEvent {
	var evs []lockEvent
	var stack []ast.Node // the nodes Inspect is inside of
	deferred := map[*ast.CallExpr]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			stack = stack[:len(stack)-1]
			return true
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred[n.Call] = deferExpiry(stack, body)
		case *ast.CallExpr:
			ev := lockEvent{call: n}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isSyncMutexMethod(pass, sel) {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					ev.mutex = sel.X
				case "Unlock", "RUnlock":
					ev.mutex, ev.unlock, ev.until = sel.X, true, deferred[n]
				}
			}
			evs = append(evs, ev)
		}
		stack = append(stack, n)
		return true
	})
	return evs
}

// deferExpiry applies the defer rule to a defer statement whose
// ancestors are stack: the end of the innermost statement list around it
// when that list ends in a terminating statement, else function end.
func deferExpiry(stack []ast.Node, body *ast.BlockStmt) token.Pos {
	for i := len(stack) - 1; i >= 0; i-- {
		if list := blockList(stack[i]); list != nil {
			if terminates(list[len(list)-1]) {
				return stack[i].End()
			}
			break
		}
	}
	return body.End()
}

// heldLock is one mutex in the sweep's held set.
type heldLock struct {
	key   string
	at    token.Pos // where it was taken; token.NoPos when held on entry
	until token.Pos // non-zero once a deferred unlock covers it
}

// sweepLocks replays events over the held set, which starts as entry and
// stays sorted by key. key names the lock a mutex operand denotes (""
// drops the event). visit sees every lock and every non-mutex call with
// the locks held just before it; unlocks only update the set.
func sweepLocks(events []lockEvent, entry []string, key func(ast.Expr) string, visit func(ev lockEvent, k string, held []heldLock)) {
	var held []heldLock
	for _, k := range entry {
		held = append(held, heldLock{key: k})
	}
	sort.Slice(held, func(i, j int) bool { return held[i].key < held[j].key })
	find := func(k string) int {
		for i := range held {
			if held[i].key == k {
				return i
			}
		}
		return -1
	}
	for _, ev := range events {
		pos := ev.call.Pos()
		kept := held[:0]
		for _, h := range held {
			if h.until == token.NoPos || h.until >= pos {
				kept = append(kept, h)
			}
		}
		held = kept
		if ev.mutex == nil {
			visit(ev, "", held)
			continue
		}
		k := key(ev.mutex)
		if k == "" {
			continue
		}
		i := find(k)
		switch {
		case !ev.unlock:
			visit(ev, k, held)
			if i < 0 {
				held = append(held, heldLock{key: k, at: pos})
				sort.Slice(held, func(i, j int) bool { return held[i].key < held[j].key })
			}
		case i < 0:
		case ev.until != token.NoPos:
			held[i].until = ev.until
		default:
			held = append(held[:i], held[i+1:]...)
		}
	}
}

// isSyncMutexMethod reports whether sel resolves to a method of
// sync.Mutex or sync.RWMutex (directly or through embedding).
func isSyncMutexMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isSyncMutexType(sig.Recv().Type())
}

// isSyncMutexType reports whether t (after one pointer deref) is
// sync.Mutex or sync.RWMutex itself.
func isSyncMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" &&
		(o.Name() == "Mutex" || o.Name() == "RWMutex")
}
