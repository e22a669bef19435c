package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockIO encodes the logMu lesson from PR 3: blocking I/O performed
// while a mutex acquired in the same function is still held serializes
// every other path through that lock behind the kernel — the exact
// defect that collapsed the concurrent pfsnet server's throughput
// before s.mu was split. The analyzer walks each function in source
// order, tracks sync.Mutex / sync.RWMutex acquisitions, and flags
// calls that perform blocking I/O (net.Conn, *os.File, bufio, io
// interfaces, ObjectStore methods; the os package's file-system
// functions) made before the lock is released. A method whose name
// ends in "Locked" follows the repo's naming convention — its caller
// holds the receiver's mutex — so its body is analysed as entered with
// every mutex field of its receiver held, which carries the check
// across same-package helpers. Deliberate holds (e.g. a flush that must
// be atomic with respect to writers) are documented with
// //lint:allow lockio <reason>.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "flag blocking I/O performed while a mutex acquired in the same function, or held on entry by the Locked-suffix convention, is held",
	Run:  runLockIO,
}

// ioMethodNames are method names that (on an I/O-bearing receiver)
// block on the kernel or a peer.
var ioMethodNames = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "Flush": true, "Close": true,
	"Accept": true, "ReadString": true, "ReadBytes": true,
	"Sync": true, "Truncate": true,
}

// osFuncNames are the os package's functions that block on the file
// system.
var osFuncNames = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
	"WriteFile": true, "ReadDir": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "Truncate": true, "Mkdir": true, "MkdirAll": true,
}

// lockedSuffix marks a method whose caller holds the receiver's mutex.
const lockedSuffix = "Locked"

// lockEvent is one ordered occurrence inside a function body.
type lockEvent struct {
	pos      token.Pos
	kind     int    // 0 lock, 1 unlock, 2 io call
	key      string // lock expression ("s.mu"), for kinds 0/1
	deferred bool   // kind 1: defer mu.Unlock() holds to function end
	desc     string // kind 2: human-readable call description
}

func runLockIO(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockIO(pass, fn.Body, entryLocks(pass, fn))
				}
			case *ast.FuncLit:
				checkLockIO(pass, fn.Body, nil)
			}
			return true
		})
	}
	return nil
}

// entryLocks returns the lock keys ("s.mu") a *Locked method holds on
// entry: one per sync.Mutex / sync.RWMutex field of its receiver's
// struct ("s" itself for an embedded one). Nil for anything else.
func entryLocks(pass *Pass, fn *ast.FuncDecl) []string {
	if !strings.HasSuffix(fn.Name.Name, lockedSuffix) || fn.Recv == nil ||
		len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil
	}
	recv := fn.Recv.List[0].Names[0]
	obj := pass.TypesInfo.Defs[recv]
	if obj == nil {
		return nil
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var keys []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !isSyncMutexType(f.Type()) {
			continue
		}
		if f.Embedded() {
			keys = append(keys, recv.Name)
		} else {
			keys = append(keys, recv.Name+"."+f.Name())
		}
	}
	return keys
}

// checkLockIO sweeps one function body (excluding nested function
// literals, which run on their own goroutine or schedule) in source
// order and reports I/O calls made between a lock acquisition and its
// release. entry lists the locks held when the body is entered.
func checkLockIO(pass *Pass, body *ast.BlockStmt, entry []string) {
	var events []lockEvent
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // analyzed separately
			case *ast.DeferStmt:
				walk(m.Call, true)
				return false
			case *ast.CallExpr:
				if ev, ok := classifyCall(pass, m, inDefer); ok {
					events = append(events, ev)
				}
			}
			return true
		})
	}
	walk(body, false)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// held maps a lock key to where it was taken; token.NoPos marks one
	// held on entry.
	held := map[string]token.Pos{}
	for _, key := range entry {
		held[key] = token.NoPos
	}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.key] = ev.pos
		case 1:
			if !ev.deferred {
				delete(held, ev.key)
			}
		case 2:
			// The caller of a *Locked method holds one of its receiver's
			// mutexes, not all: report the candidates once.
			var onEntry []string
			for key, at := range held {
				if at == token.NoPos {
					onEntry = append(onEntry, key)
					continue
				}
				pass.Reportf(ev.pos, "blocking I/O %s while %s (locked at line %d) is held; move the I/O outside the critical section or //lint:allow lockio <reason>",
					ev.desc, key, pass.Fset.Position(at).Line)
			}
			if len(onEntry) > 0 {
				sort.Strings(onEntry)
				pass.Reportf(ev.pos, "blocking I/O %s while %s (held on entry: the function name ends in %s) is held; move the I/O to the caller, outside the critical section, or //lint:allow lockio <reason>",
					ev.desc, strings.Join(onEntry, " or "), lockedSuffix)
			}
		}
	}
}

// classifyCall decides whether call is a lock operation or a blocking
// I/O method call.
func classifyCall(pass *Pass, call *ast.CallExpr, inDefer bool) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if !isSyncMutexMethod(pass, sel) {
			return lockEvent{}, false
		}
		key := lockKey(sel)
		if key == "" {
			return lockEvent{}, false
		}
		kind := 0
		if name == "Unlock" || name == "RUnlock" {
			kind = 1
		}
		return lockEvent{pos: call.Pos(), kind: kind, key: key, deferred: inDefer}, true
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			if pkg.Imported().Path() == "os" && osFuncNames[name] {
				return lockEvent{pos: call.Pos(), kind: 2, desc: "os." + name}, true
			}
			return lockEvent{}, false
		}
	}
	if !ioMethodNames[name] {
		return lockEvent{}, false
	}
	recvType := pass.TypesInfo.TypeOf(sel.X)
	if recvType == nil || !isBlockingIOReceiver(recvType, name) {
		return lockEvent{}, false
	}
	desc := name
	if k := exprKey(sel.X); k != "" {
		desc = k + "." + name
	}
	return lockEvent{pos: call.Pos(), kind: 2, desc: desc}, true
}

// isSyncMutexMethod reports whether sel resolves to a method of
// sync.Mutex or sync.RWMutex (directly or through embedding).
func isSyncMutexMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isSyncMutexType(sig.Recv().Type())
}

// lockKey names the mutex being operated on: "s.mu" for s.mu.Lock(),
// or the receiver itself ("s") for an embedded mutex's s.Lock().
func lockKey(sel *ast.SelectorExpr) string {
	return exprKey(sel.X)
}

// ioPkgAllowlist are packages whose named types do I/O when their
// Read/Write/Close-shaped methods are invoked.
var ioPkgAllowlist = map[string]bool{
	"os": true, "net": true, "bufio": true, "io": true,
}

// isBlockingIOReceiver reports whether a method named name on a value
// of type t plausibly blocks on I/O. Concrete in-memory types
// (bytes.Buffer, strings.Builder, MemStore, ...) are excluded: only
// named types from os/net/bufio/io, and interface types that include
// the method themselves (net.Conn, io.Reader, ObjectStore, ...),
// count. Interfaces count because the concrete value behind them is
// unknown — the contract must hold for the slowest implementation.
func isBlockingIOReceiver(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil && ioPkgAllowlist[pkg.Path()] {
			return true
		}
		t = named.Underlying()
	}
	if iface, ok := t.(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				return true
			}
		}
	}
	return false
}
