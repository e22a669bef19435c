package analyzers

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// detPackages is the deterministic-simulation surface: every package
// whose behaviour must be a pure function of the experiment seed so
// that jobs=1 and jobs=8 runs stay byte-identical (PR 1's guarantee).
var detPackages = map[string]bool{
	"repro/internal/sim":         true,
	"repro/internal/vtime":       true,
	"repro/internal/core":        true,
	"repro/internal/hdd":         true,
	"repro/internal/ssd":         true,
	"repro/internal/iosched":     true,
	"repro/internal/pfs":         true,
	"repro/internal/stripe":      true,
	"repro/internal/workload":    true,
	"repro/internal/experiments": true,
	// The fault injector's schedules must be a pure function of the plan
	// seed; its single sanctioned real timer (the latency effect) carries
	// a //lint:allow waiver.
	"repro/internal/faults": true,
}

// detClockExemptFile allows the one sanctioned randomness source: the
// seeded SplitMix64 generator in sim/rng.go.
func detClockExemptFile(pkgPath, filename string) bool {
	return pkgPath == "repro/internal/sim" && filepath.Base(filename) == "rng.go"
}

// bannedTimeFuncs are the wall-clock entry points of package time. The
// simulation must draw time only from sim.Time / the engine clock;
// duration constants (time.Millisecond etc.) remain fine.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// DetClock forbids wall-clock time and the global math/rand generator
// inside the deterministic simulation packages. All simulated time must
// flow from the engine clock and all randomness from the explicitly
// seeded sim.RNG (sim/rng.go), or the byte-identical determinism
// guarantee regresses silently.
var DetClock = &Analyzer{
	Name: "detclock",
	Doc:  "forbid wall-clock time and math/rand in deterministic simulation packages",
	Run:  runDetClock,
}

func runDetClock(pass *Pass) error {
	if !detPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if detClockExemptFile(pass.Pkg.Path(), filename) {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "deterministic package %s imports %s; draw randomness from the seeded sim.RNG instead", pass.Pkg.Path(), path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if bannedTimeFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "time.%s is wall-clock and breaks deterministic simulation; use the engine's sim.Time clock", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
