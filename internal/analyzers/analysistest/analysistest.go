// Package analysistest runs an analyzer over a fixture package and
// checks its diagnostics against // want "regexp" comments embedded in
// the fixture source — the same convention as
// golang.org/x/tools/go/analysis/analysistest, rebuilt on the standard
// library so the repo stays dependency-free.
//
// A fixture line may carry one or more expectations:
//
//	time.Sleep(d) // want "wall-clock"
//
// Patterns are regular expressions, quoted either with double quotes
// or with backticks (handy when the pattern itself contains escapes).
//
// Every diagnostic must be matched by an expectation on its line and
// vice versa. //lint:allow suppression directives are honored, so
// fixtures can also assert that a documented waiver silences a finding.
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyzers"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

// One loader serves every Run in a test binary, so the source importer
// type-checks the standard library and the module's own dependencies
// once rather than once per fixture. A Loader is not safe for concurrent
// use; loaderMu serializes the loads.
var (
	loaderMu sync.Mutex
	loader   *analyzers.Loader
)

// load parses and type-checks the fixture in abs with the shared loader.
func load(abs, asPath string) (*analyzers.Package, error) {
	loaderMu.Lock()
	defer loaderMu.Unlock()
	if loader == nil {
		l, err := analyzers.NewLoader(".")
		if err != nil {
			return nil, err
		}
		loader = l
	}
	return loader.LoadDir(abs, asPath)
}

// Run loads the single fixture package in dir (relative to the test's
// working directory), attributes it to import path asPath (which
// controls path-scoped analyzers like detclock), runs a, and compares
// diagnostics against the fixture's want comments.
func Run(t *testing.T, a *analyzers.Analyzer, dir, asPath string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := load(abs, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	diags, err := analyzers.RunAnalyzers([]*analyzers.Analyzer{a}, []*analyzers.Package{pkg})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	type key struct {
		file string
		line int
	}
	got := map[key][]string{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{filepath.Base(pos.Filename), pos.Line}
		got[k] = append(got[k], d.Message)
	}
	want := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		collectWants(t, pkg, f, func(file string, line int, re *regexp.Regexp) {
			k := key{file, line}
			want[k] = append(want[k], re)
		})
	}

	for k, res := range want {
		msgs := got[k]
		for _, re := range res {
			idx := -1
			for i, m := range msgs {
				if re.MatchString(m) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Errorf("%s:%d: expected diagnostic matching %q, got %v", k.file, k.line, re, msgs)
				continue
			}
			msgs = append(msgs[:idx], msgs[idx+1:]...)
		}
		if len(msgs) > 0 {
			t.Errorf("%s:%d: unexpected extra diagnostics %v", k.file, k.line, msgs)
		}
		delete(got, k)
	}
	for k, msgs := range got {
		t.Errorf("%s:%d: unexpected diagnostics %v", k.file, k.line, msgs)
	}
}

func collectWants(t *testing.T, pkg *analyzers.Package, f *ast.File, add func(file string, line int, re *regexp.Regexp)) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			quoted := quotedRe.FindAllStringSubmatch(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: want comment without a quoted pattern", pos.Filename, pos.Line)
			}
			for _, q := range quoted {
				pat := q[2] // backtick form: taken verbatim
				if q[1] != "" || q[2] == "" {
					pat = strings.ReplaceAll(q[1], `\"`, `"`)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
				}
				add(filepath.Base(pos.Filename), pos.Line, re)
			}
		}
	}
}
