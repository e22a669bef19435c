package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the package's interprocedural lock-acquisition
// graph and reports cycles as potential deadlocks. Nodes are lock
// classes named by owning type and field ("Client.mu", "conn.pendMu")
// or by package-level variable ("logMu"); an edge A→B is recorded when
// B is acquired — directly or anywhere inside a callee reached without
// releasing — while A is held. Any strongly-connected component (or a
// self-edge, which is an immediate sync.Mutex self-deadlock) is
// reported once per participating acquisition site. The held sets come
// from the lock sweep lockio shares (lockEvents): goroutine bodies are
// excluded (a spawned goroutine does not hold its parent's locks), and
// a deferred unlock holds to function end unless its block terminates.
// Output is deterministic: nodes, edges, and cycles are sorted, so two
// runs over the same tree are byte-identical.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "interprocedural lock-acquisition graph over named mutexes; any cycle is a potential deadlock",
	Run:  runLockOrder,
}

// lockEdge is one "acquired B while holding A" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrder{
		pass:      pass,
		decls:     packageFuncDecls(pass),
		summaries: map[*types.Func][]string{},
	}
	// Deterministic sweep order: files as loaded (sorted by the loader),
	// declarations in source order.
	var edges []lockEdge
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			edges = append(edges, lo.sweep(fd.Body)...)
		}
	}
	reportLockCycles(pass, edges)
	return nil
}

type lockOrder struct {
	pass      *Pass
	decls     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func][]string
}

// sweep returns the lock-order edges one function body witnesses: every
// acquisition, direct or inside a same-package callee, while other
// locks are held.
func (lo *lockOrder) sweep(body *ast.BlockStmt) []lockEdge {
	var edges []lockEdge
	sweepLocks(lockEvents(lo.pass, body), nil, lo.lockClass, func(ev lockEvent, k string, held []heldLock) {
		if len(held) == 0 {
			return
		}
		tos := []string{k}
		if ev.mutex == nil {
			tos = lo.summary(calleeFunc(lo.pass, ev.call), nil)
		}
		for _, to := range tos {
			for _, h := range held {
				edges = append(edges, lockEdge{from: h.key, to: to, pos: ev.call.Pos()})
			}
		}
	})
	return edges
}

// lockClass names the lock a `<recv>.mu.Lock()` call operates on so
// that acquisitions of the same per-instance lock from different
// methods collapse into one node: "Type.field" for a field mutex,
// the variable name for a package-level mutex, "Type" for an embedded
// mutex locked through its owner, and the lexical expression as a last
// resort.
func (lo *lockOrder) lockClass(mutex ast.Expr) string {
	switch x := ast.Unparen(mutex).(type) {
	case *ast.Ident:
		obj, ok := lo.pass.TypesInfo.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if obj.Parent() == lo.pass.Pkg.Scope() {
			return obj.Name() // package-level var: "logMu"
		}
		// An embedded mutex locked through its owner (s.Lock()) is one
		// lock class per owning type; a plain local sync.Mutex keeps its
		// identifier name.
		if n := namedTypeName(obj.Type()); n != "" && !isSyncMutexType(obj.Type()) {
			return n
		}
		return x.Name
	case *ast.SelectorExpr:
		if s, ok := lo.pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal {
			if owner := namedTypeName(lo.pass.TypesInfo.TypeOf(x.X)); owner != "" {
				return owner + "." + x.Sel.Name
			}
		}
		if v, ok := lo.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && v.Parent() == lo.pass.Pkg.Scope() {
			return x.Sel.Name
		}
		return exprKey(x)
	}
	return exprKey(mutex)
}

// summary returns the sorted set of lock classes fn may acquire
// anywhere in its body or transitively through same-package callees.
// Memoized; recursion through the call graph is cut by the visiting
// set.
func (lo *lockOrder) summary(fn *types.Func, visiting map[*types.Func]bool) []string {
	if s, ok := lo.summaries[fn]; ok {
		return s
	}
	if visiting[fn] {
		return nil
	}
	decl := lo.decls[fn]
	if decl == nil || decl.Body == nil {
		return nil
	}
	if visiting == nil {
		visiting = map[*types.Func]bool{}
	}
	visiting[fn] = true
	seen := map[string]bool{}
	var acq []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			acq = append(acq, k)
		}
	}
	for _, ev := range lockEvents(lo.pass, decl.Body) {
		switch {
		case ev.mutex == nil:
			for _, k := range lo.summary(calleeFunc(lo.pass, ev.call), visiting) {
				add(k)
			}
		case !ev.unlock:
			if k := lo.lockClass(ev.mutex); k != "" {
				add(k)
			}
		}
	}
	delete(visiting, fn)
	sort.Strings(acq)
	lo.summaries[fn] = acq
	return acq
}

// reportLockCycles condenses the edge list into a graph, finds its
// strongly-connected components, and reports every acquisition edge
// that participates in a cycle, in deterministic order.
func reportLockCycles(pass *Pass, edges []lockEdge) {
	// Dedupe to the earliest position per (from, to); collect nodes and
	// pairs as slices alongside the maps so no map iteration order ever
	// reaches the output.
	type pair struct{ from, to string }
	first := map[pair]token.Pos{}
	adj := map[string][]string{}
	seenNode := map[string]bool{}
	var sorted []string
	var pairs []pair
	addNode := func(n string) {
		if !seenNode[n] {
			seenNode[n] = true
			sorted = append(sorted, n)
		}
	}
	for _, e := range edges {
		addNode(e.from)
		addNode(e.to)
		p := pair{e.from, e.to}
		if at, ok := first[p]; !ok || e.pos < at {
			if !ok {
				adj[e.from] = append(adj[e.from], e.to)
				pairs = append(pairs, p)
			}
			first[p] = e.pos
		}
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		sort.Strings(adj[n])
	}
	scc := tarjanSCC(sorted, adj)
	comp := map[string]int{}
	for i, c := range scc {
		for _, n := range c {
			comp[n] = i
		}
	}
	for _, c := range scc {
		cyclic := len(c) > 1
		if !cyclic {
			// Single node: cyclic only with a self-edge.
			if _, ok := first[pair{c[0], c[0]}]; ok {
				cyclic = true
			}
		}
		if !cyclic {
			continue
		}
		members := append([]string(nil), c...)
		sort.Strings(members)
		label := strings.Join(members, " -> ") + " -> " + members[0]
		if len(members) == 1 {
			label = members[0] + " -> " + members[0]
		}
		// Report each intra-component edge at its earliest acquisition
		// site, sorted for stable output.
		var ps []pair
		for _, p := range pairs {
			if comp[p.from] == comp[p.to] && comp[p.from] == comp[members[0]] {
				if len(members) > 1 || (p.from == members[0] && p.to == members[0]) {
					ps = append(ps, p)
				}
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].from != ps[j].from {
				return ps[i].from < ps[j].from
			}
			return ps[i].to < ps[j].to
		})
		for _, p := range ps {
			if p.from == p.to {
				pass.Reportf(first[p], "lock-order: %s re-acquired while already held (self-deadlock for sync.Mutex)", p.from)
				continue
			}
			pass.Reportf(first[p], "lock-order cycle %s: %s acquired here while %s is held; a concurrent path acquires them in the opposite order", label, p.to, p.from)
		}
	}
}

// namedTypeName returns the name of t's named type, dereferencing one
// pointer level; "" for anonymous types.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// tarjanSCC computes strongly-connected components over the sorted node
// list; the deterministic visit order makes the output stable.
func tarjanSCC(nodes []string, adj map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var c []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c = append(c, w)
				if w == v {
					break
				}
			}
			out = append(out, c)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return out
}
