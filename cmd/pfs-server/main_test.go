package main

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSimulator: the live binaries serve real bytes on real sockets, so
// neither may link the discrete-event simulator or the simulated storage
// stack built on it. Packages that only name virtual time import the leaf
// internal/vtime instead of internal/sim. The test walks each command's
// transitive non-test module imports with go/build and names the import
// chain that reaches a simulator package.
func TestNoSimulator(t *testing.T) {
	const module = "repro/"
	forbidden := []string{"sim", "iosched", "hdd", "ssd", "core", "pfs", "cluster"}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"cmd/pfs-server", "cmd/pfs-meta"} {
		seen := map[string]string{} // module import path -> an importer
		var walk func(pkg *build.Package)
		walk = func(pkg *build.Package) {
			for _, path := range pkg.Imports {
				if _, ok := seen[path]; ok || !strings.HasPrefix(path, module) {
					continue
				}
				seen[path] = pkg.ImportPath
				dep, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
				if err != nil {
					t.Fatalf("import %s (from %s): %v", path, pkg.ImportPath, err)
				}
				dep.ImportPath = path
				walk(dep)
			}
		}
		self, err := build.ImportDir(filepath.Join(root, cmd), 0)
		if err != nil {
			t.Fatal(err)
		}
		self.ImportPath = module + cmd
		walk(self)
		if _, ok := seen[module+"internal/pfsnet"]; !ok {
			t.Fatalf("%s: walk missed internal/pfsnet: %v", cmd, seen)
		}
		for _, name := range forbidden {
			path := module + "internal/" + name
			by, ok := seen[path]
			if !ok {
				continue
			}
			chain := []string{path}
			for p := by; p != ""; p = seen[p] {
				chain = append(chain, p)
			}
			t.Errorf("%s links %s: imported via %s", cmd, path, strings.Join(chain, " <- "))
		}
	}
}
