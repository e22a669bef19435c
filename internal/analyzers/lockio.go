package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockIO encodes the logMu lesson from PR 3: blocking I/O performed
// while a mutex acquired in the same function is still held serializes
// every other path through that lock behind the kernel — the exact
// defect that collapsed the concurrent pfsnet server's throughput
// before s.mu was split. The analyzer replays each function's lock
// sweep (lockEvents, shared with lockorder: go statements skipped, a
// deferred unlock held to function end unless its block terminates)
// and flags calls that perform blocking I/O (net.Conn, *os.File, bufio,
// io interfaces, ObjectStore methods; the os package's file-system
// functions) made while a lock is held. A method whose name
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

// checkLockIO sweeps one function body (nested function literals are
// checked as bodies of their own) and reports blocking I/O calls made
// while a lock is held. entry lists the locks held when the body is
// entered.
func checkLockIO(pass *Pass, body *ast.BlockStmt, entry []string) {
	sweepLocks(lockEvents(pass, body), entry, exprKey, func(ev lockEvent, _ string, held []heldLock) {
		desc := blockingIO(pass, ev)
		if desc == "" {
			return
		}
		// The caller of a *Locked method holds one of its receiver's
		// mutexes, not all: report the candidates once.
		var onEntry []string
		for _, h := range held {
			if h.at == token.NoPos {
				onEntry = append(onEntry, h.key)
				continue
			}
			pass.Reportf(ev.call.Pos(), "blocking I/O %s while %s (locked at line %d) is held; move the I/O outside the critical section or //lint:allow lockio <reason>",
				desc, h.key, pass.Fset.Position(h.at).Line)
		}
		if len(onEntry) > 0 {
			pass.Reportf(ev.call.Pos(), "blocking I/O %s while %s (held on entry: the function name ends in %s) is held; move the I/O to the caller, outside the critical section, or //lint:allow lockio <reason>",
				desc, strings.Join(onEntry, " or "), lockedSuffix)
		}
	})
}

// blockingIO describes ev's call ("c.Read", "os.Rename") when it is
// blocking I/O, and returns "" for anything else.
func blockingIO(pass *Pass, ev lockEvent) string {
	if ev.mutex != nil {
		return ""
	}
	sel, ok := ast.Unparen(ev.call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			if pkg.Imported().Path() == "os" && osFuncNames[name] {
				return "os." + name
			}
			return ""
		}
	}
	if !ioMethodNames[name] {
		return ""
	}
	if t := pass.TypesInfo.TypeOf(sel.X); t == nil || !isBlockingIOReceiver(t, name) {
		return ""
	}
	if k := exprKey(sel.X); k != "" {
		return k + "." + name
	}
	return name
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
