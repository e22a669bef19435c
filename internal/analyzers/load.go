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
// using only the standard library: file sets come from go/parser and
// dependencies resolve through the source importer, so no external
// analysis framework is needed.
type Loader struct {
	fset        *token.FileSet
	imp         types.Importer
	ModRoot     string // module root directory (where go.mod lives)
	ModPath     string // module path from go.mod
	TestGoFiles bool   // also load _test.go files of the package itself
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
		imp:     importer.ForCompiler(fset, "source", nil),
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

// LoadDir parses and type-checks the single package in dir. When asPath
// is empty the import path is derived from the module layout. Dirs with
// no buildable Go files yield (nil, nil).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !l.TestGoFiles && strings.HasSuffix(name, "_test.go") {
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
	// External test packages (package foo_test) share the directory;
	// keep only the dominant (non _test suffixed) package.
	if l.TestGoFiles {
		base := files[0].Name.Name
		for _, f := range files {
			if !strings.HasSuffix(f.Name.Name, "_test") {
				base = f.Name.Name
				break
			}
		}
		kept := files[:0]
		for _, f := range files {
			if f.Name.Name == base {
				kept = append(kept, f)
			}
		}
		files = kept
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
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
