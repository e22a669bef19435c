package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMix enforces the all-or-nothing rule for sync/atomic: once any
// access to a field or variable goes through a sync/atomic function
// (`atomic.AddInt64(&s.n, 1)`), every access must — a plain read or
// write elsewhere in the package races with the atomic ones and the
// race detector only catches the interleavings a test happens to hit.
// Identity is the type-checker object, so a promoted access through an
// embedded struct is the same field while a same-named field of a
// different struct is not. Composite-literal initialization is exempt:
// construction happens before the value is shared. The durable fix is
// usually migrating the field to an atomic.Int64-style wrapper type,
// which makes the mix inexpressible.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a field/variable accessed via sync/atomic must never be read or written plainly elsewhere in the package",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	// Pass 1: every `&x` handed to a sync/atomic function marks x's
	// object atomic and its identifier as an atomic access site.
	atomicAt := map[types.Object]token.Pos{} // object → first atomic access
	atomicSite := map[*ast.Ident]bool{}      // identifiers inside atomic operands
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) || len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			obj, id := accessedVar(pass, addr.X)
			if obj == nil {
				return true
			}
			if at, seen := atomicAt[obj]; !seen || call.Pos() < at {
				atomicAt[obj] = call.Pos()
			}
			atomicSite[id] = true
			return true
		})
	}
	if len(atomicAt) == 0 {
		return nil
	}
	// Pass 2: any other use of those objects is a plain (racy) access,
	// except construction-time composite-literal initialization.
	pm := newParentMap(pass.Files)
	type finding struct {
		pos token.Pos
		obj types.Object
	}
	var finds []finding
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || atomicSite[id] {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if _, ok := atomicAt[obj]; !ok {
				return true
			}
			if compositeLitKey(pm, id) {
				return true
			}
			finds = append(finds, finding{id.Pos(), obj})
			return true
		})
	}
	sort.Slice(finds, func(i, j int) bool { return finds[i].pos < finds[j].pos })
	for _, fd := range finds {
		pass.Reportf(fd.pos, "%s is accessed via sync/atomic (first at line %d) but plainly here; mixed access races — use sync/atomic everywhere or an atomic.Int64-style wrapper",
			objLabel(fd.obj), pass.Fset.Position(atomicAt[fd.obj]).Line)
	}
	return nil
}

// isAtomicCall reports whether call invokes a function of sync/atomic
// (AddInt64, LoadUint32, StoreInt64, SwapPointer, CompareAndSwap...).
func isAtomicCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// accessedVar resolves the operand of an atomic `&x` to the variable
// object it addresses (a struct field through any selector chain, or a
// plain variable) plus the identifier naming it.
func accessedVar(pass *Pass, e ast.Expr) (types.Object, *ast.Ident) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok {
			return v, e
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj(), e.Sel
		}
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return v, e.Sel
		}
	case *ast.IndexExpr:
		// Array/slice elements are not stably addressable by object;
		// skip rather than over-claim.
	}
	return nil, nil
}

// compositeLitKey reports whether id is the key of a composite-literal
// field initialization (`T{n: 0}`) — construction before publication.
func compositeLitKey(pm parentMap, id *ast.Ident) bool {
	kv, ok := pm[id].(*ast.KeyValueExpr)
	if !ok || kv.Key != id {
		return false
	}
	_, ok = pm[kv].(*ast.CompositeLit)
	return ok
}

// objLabel names an object for a report: "T.n" for a field of struct
// type T, the bare name otherwise.
func objLabel(obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return fieldOwner(v) + v.Name()
	}
	return obj.Name()
}

// fieldOwner renders "T." for a field declared in named struct T, ""
// when the owner cannot be named.
func fieldOwner(v *types.Var) string {
	// The type checker does not expose a field's owning struct
	// directly; the package scope's type names are few, so scan them.
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if structHasField(st, v, 0) {
			return tn.Name() + "."
		}
	}
	return ""
}

// structHasField reports whether st declares v, descending through
// embedded structs (bounded).
func structHasField(st *types.Struct, v *types.Var, depth int) bool {
	if depth > 3 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f == v {
			return true
		}
		if f.Embedded() {
			t := f.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if inner, ok := t.Underlying().(*types.Struct); ok && structHasField(inner, v, depth+1) {
				return true
			}
		}
	}
	return false
}
