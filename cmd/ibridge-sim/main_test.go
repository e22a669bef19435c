package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/build"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with IBRIDGE_SIM_MAIN set, it runs main with the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("IBRIDGE_SIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs the command with args and returns its exit code and
// output streams.
func runSim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "IBRIDGE_SIM_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errb.String()
}

// TestGeometryRejected: a volume smaller than one request per process
// used to panic in pfs.(*Client).request ("request … outside file"); it
// is a usage error. So are a stripe unit ≤ 0 (once silently run as
// 64 KiB), no servers (once a log.Fatal, exit 1) and a negative SSD
// size, threshold or think time (once accepted).
func TestGeometryRejected(t *testing.T) {
	small := []string{"-file", "1", "-procs", "16", "-size", "65536"}
	for _, args := range [][]string{
		{"-file", "1", "-procs", "64"},
		{"-file", "1", "-procs", "0"},
		{"-file", "1", "-size", "0"},
		{"-file", "1", "-procs", "2", "-shift", "-1"},
		append([]string{"-unit", "0"}, small...),
		append([]string{"-unit", "-5"}, small...),
		append([]string{"-servers", "0"}, small...),
		append([]string{"-ssd", "-1"}, small...),
		append([]string{"-threshold", "-1"}, small...),
		append([]string{"-jitter", "-1"}, small...),
	} {
		code, stdout, stderr := runSim(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", args, code, stderr)
		}
		if strings.Contains(stderr, "outside file") || !strings.Contains(stderr, "invalid geometry") || !strings.Contains(stderr, "Usage") {
			t.Errorf("%v: stderr is not a usage message:\n%s", args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: printed results for a rejected geometry:\n%s", args, stdout)
		}
	}
}

// TestSmallestGeometryRuns: exactly one request per process is the
// smallest volume accepted, and it runs to completion.
func TestSmallestGeometryRuns(t *testing.T) {
	code, stdout, stderr := runSim(t, "-file", "1", "-procs", "16", "-size", "65536", "-write")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "requests:       16,") {
		t.Fatalf("want 16 requests reported:\n%s", stdout)
	}
}

// TestCPUProfileFlag: -cpuprofile writes a non-empty pprof file and does
// not change a byte of standard output.
func TestCPUProfileFlag(t *testing.T) {
	args := []string{"-mode", "ibridge", "-file", "16", "-size", "66560", "-write"}
	code, plain, stderr := runSim(t, args...)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	prof := filepath.Join(t.TempDir(), "sim.prof")
	code, profiled, stderr := runSim(t, append(args, "-cpuprofile", prof)...)
	if code != 0 {
		t.Fatalf("-cpuprofile: exit %d\nstderr: %s", code, stderr)
	}
	if profiled != plain {
		t.Errorf("-cpuprofile changed stdout:\n--- plain ---\n%s--- profiled ---\n%s", plain, profiled)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("profile %s: %v, size %d; want a non-empty file", prof, err, fi.Size())
	}
}

// TestTraceFlag: -trace writes a Chrome trace of the run without
// changing a byte of standard output. The trace is one process, "sim",
// with a lane per component named run<N>/<comp>; no event precedes the
// origin; and a bridge decision carries the trace id of the client
// request it served.
func TestTraceFlag(t *testing.T) {
	args := []string{"-mode", "ibridge", "-file", "16", "-size", "66560", "-write"}
	code, plain, stderr := runSim(t, args...)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	code, traced, stderr := runSim(t, append(args, "-trace", path)...)
	if code != 0 {
		t.Fatalf("-trace: exit %d\nstderr: %s", code, stderr)
	}
	if traced != plain {
		t.Errorf("-trace changed stdout:\n--- plain ---\n%s--- traced ---\n%s", plain, traced)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			Pid   int               `json:"pid"`
			Tid   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	lanePat := regexp.MustCompile(`^run[0-9]+/(client|srv[0-9]+|bridge[0-9]+)$`)
	lanes := map[[2]int]string{}
	clientTraces := map[string]bool{}
	var bridgeTraces []string
	for _, ev := range doc.TraceEvents {
		if ev.TS < 0 {
			t.Errorf("%s at ts=%v µs, before the trace origin", ev.Name, ev.TS)
		}
		switch {
		case ev.Phase == "M" && ev.Name == "process_name":
			if ev.Args["name"] != "sim" {
				t.Errorf("process %q, want the one process \"sim\"", ev.Args["name"])
			}
		case ev.Phase == "M":
			if !lanePat.MatchString(ev.Args["name"]) {
				t.Errorf("lane %q is not named run<N>/<comp>", ev.Args["name"])
			}
			lanes[[2]int{ev.Pid, ev.Tid}] = ev.Args["name"]
		default:
			lane := lanes[[2]int{ev.Pid, ev.Tid}]
			if ev.Phase == "X" && strings.HasSuffix(lane, "/client") {
				clientTraces[ev.Args["trace"]] = true
			}
			if ev.Phase == "i" && strings.Contains(lane, "/bridge") && ev.Args["trace"] != "" {
				bridgeTraces = append(bridgeTraces, ev.Args["trace"])
			}
		}
	}
	if len(clientTraces) == 0 || len(bridgeTraces) == 0 {
		t.Fatalf("trace has %d client request traces and %d attributed bridge instants; want both", len(clientTraces), len(bridgeTraces))
	}
	for _, id := range bridgeTraces {
		if clientTraces[id] {
			return
		}
	}
	t.Errorf("no bridge instant shares its trace arg with a client span")
}

// TestNoNetOrCgo: the simulator serves nothing over the network, so it
// must link neither net (nor net/http and crypto/tls above it) nor cgo.
// net brings in runtime/cgo, and a binary with cgo in it is linked
// dynamically: every simulation child would then start through the
// dynamic loader and libc, and the launch would cost a third of a
// small grid point's wall time. The test walks the command's transitive
// non-test imports with go/build and names the import chain to net,
// runtime/cgo, or any package with cgo files.
func TestNoNetOrCgo(t *testing.T) {
	const module = "repro/"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{} // import path -> an importer
	var cgo []string            // walked packages with cgo files
	var walk func(dir string, pkg *build.Package)
	walk = func(dir string, pkg *build.Package) {
		for _, path := range pkg.Imports {
			if _, ok := seen[path]; ok || path == "C" || path == "unsafe" {
				continue
			}
			seen[path] = pkg.ImportPath
			var dep *build.Package
			var err error
			if strings.HasPrefix(path, module) {
				dep, err = build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
			} else {
				dep, err = build.Import(path, dir, 0)
			}
			if err != nil {
				t.Fatalf("import %s (from %s): %v", path, pkg.ImportPath, err)
			}
			dep.ImportPath = path
			if len(dep.CgoFiles) > 0 {
				cgo = append(cgo, path)
			}
			walk(dep.Dir, dep)
		}
	}
	self, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	self.ImportPath = module + "cmd/ibridge-sim"
	walk(self.Dir, self)
	if len(seen) < 20 {
		t.Fatalf("walked only %d imports: %v", len(seen), seen)
	}
	chain := func(path string) string {
		links := []string{path}
		for p := seen[path]; p != ""; p = seen[p] {
			links = append(links, p)
		}
		return strings.Join(links, " <- ")
	}
	for _, path := range []string{"net", "runtime/cgo"} {
		if _, ok := seen[path]; ok {
			t.Errorf("ibridge-sim links %s: imported via %s", path, chain(path))
		}
	}
	for _, path := range cgo {
		t.Errorf("ibridge-sim links cgo code in %s: imported via %s", path, chain(path))
	}
}
