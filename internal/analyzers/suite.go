package analyzers

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// All returns the full invariant suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{DetClock, DetMapRange, ObsNil, LockIO, AtomicMix, LockOrder, GoSpawn}
}

// ByName resolves a comma-separated analyzer list ("detclock,lockio");
// empty selects the whole suite.
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", n, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the suite's analyzer names.
func Names() []string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return ns
}

// A Finding is one diagnostic with its position resolved, ready for
// rendering or machine consumption (`ibridge-vet -json`). File is
// module-root-relative so CI annotations resolve inside the checkout.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders f as `file:line:col: [analyzer] message`, the line
// ibridge-vet prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Findings loads patterns (resolved against the enclosing module of
// startDir) and runs the selected analyzers, returning resolved
// findings in stable position order.
func Findings(startDir string, patterns []string, as []*Analyzer) ([]Finding, error) {
	loader, err := NewLoader(startDir)
	if err != nil {
		return nil, err
	}
	return loader.Findings(patterns, as)
}

// Findings is the package-level Findings on this loader's packages;
// patterns default to "./...".
func (l *Loader) Findings(patterns []string, as []*Analyzer) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	diags, err := RunAnalyzers(as, pkgs)
	if err != nil {
		return nil, err
	}
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		pos := l.fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(l.ModRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, Finding{
			File:     file,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out, nil
}

// Vet runs the selected analyzers over patterns and writes one
// `file:line:col: [analyzer] message` line per finding to w, returning
// the number of findings.
func Vet(startDir string, patterns []string, as []*Analyzer, w io.Writer) (int, error) {
	fs, err := Findings(startDir, patterns, as)
	if err != nil {
		return 0, err
	}
	for _, f := range fs {
		fmt.Fprintln(w, f)
	}
	return len(fs), nil
}

// VetJSON is Vet with machine-readable output: a JSON array of findings
// (empty array, not null, when clean).
func VetJSON(startDir string, patterns []string, as []*Analyzer, w io.Writer) (int, error) {
	fs, err := Findings(startDir, patterns, as)
	if err != nil {
		return 0, err
	}
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fs); err != nil {
		return 0, err
	}
	return len(fs), nil
}
