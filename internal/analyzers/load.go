package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("repro/internal/sim")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of the enclosing module
// using only the standard library. Each module package is type-checked
// once: LoadDir memoizes it by directory, and the Loader is itself the
// importer that resolves one module package's imports of another, so
// every import path has one *types.Package. Standard-library imports go
// to the source importer. A Loader is not safe for concurrent use.
type Loader struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // LoadDir results by directory (nil: no Go files)
	ModRoot string              // module root directory (where go.mod lives)
	ModPath string              // module path from go.mod
}

// NewLoader locates the enclosing module starting from dir (walking up
// to the go.mod) and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analyzers: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analyzers: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		ModRoot: root,
		ModPath: modPath,
	}, nil
}

// Load resolves patterns to packages. Supported patterns: "./..."
// (every package under the module root), "./dir" and "./dir/..."
// relative to the module root, and plain import paths inside the
// module. testdata, vendor, and hidden directories are skipped.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	addTree := func(base string) error {
		return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[path] = true
			return nil
		})
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := addTree(l.ModRoot); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.ModRoot, strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/..."))
			if err := addTree(base); err != nil {
				return nil, err
			}
		default:
			rel := strings.TrimPrefix(pat, "./")
			if strings.HasPrefix(pat, l.ModPath) {
				rel = strings.TrimPrefix(strings.TrimPrefix(pat, l.ModPath), "/")
			}
			dirs[filepath.Join(l.ModRoot, rel)] = true
		}
	}
	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var pkgs []*Package
	for _, dir := range sorted {
		pkg, err := l.LoadDir(dir, "")
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// Import makes the Loader the types.Importer of the packages it
// checks: a module package resolves through LoadDir, anything else
// through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.ModPath)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	pkg, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), "")
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analyzers: no Go files for %s", path)
	}
	return pkg.Types, nil
}

// LoadDir parses and type-checks the single package in dir, skipping
// _test.go files. When asPath is empty the import path is derived from
// the module layout and the result is memoized; a package attributed to
// another path (a test fixture) is type-checked afresh on every call.
// Dirs with no buildable Go files yield (nil, nil).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	if asPath == "" {
		if pkg, ok := l.pkgs[dir]; ok {
			return pkg, nil
		}
	}
	pkg, err := l.check(dir, asPath)
	if err == nil && asPath == "" {
		l.pkgs[dir] = pkg
	}
	return pkg, err
}

func (l *Loader) check(dir, asPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	path := asPath
	if path == "" {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			path = l.ModPath
		} else {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
