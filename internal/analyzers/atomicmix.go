package analyzers

import (
	"go/ast"
	"go/types"
)

// AtomicMix bans the package-level functions of sync/atomic
// (atomic.AddInt64(&s.n, 1), atomic.LoadUint32, ...). They operate on a
// plain integer or pointer that any other line may still read or write
// directly, and such a mixed access races in a way the race detector
// only catches for the interleavings a test happens to hit. The typed
// wrappers (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...) expose no
// plain field, so with only them allowed a mix cannot be written at all.
// Every reference to such a function is reported, a call or a function
// value alike.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "forbid sync/atomic's package-level functions; use the typed wrappers (atomic.Int64, ...) so atomic and plain access cannot mix",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(id.Pos(), "atomic.%s operates on a plain variable that other code can access without sync/atomic; declare it as a typed wrapper (atomic.Int64, atomic.Pointer[T], ...) and use its methods", fn.Name())
			return true
		})
	}
	return nil
}
