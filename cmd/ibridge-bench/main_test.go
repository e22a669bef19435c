package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with IBRIDGE_BENCH_MAIN set, it runs main with the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("IBRIDGE_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs the command with args and returns its standard output.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "IBRIDGE_BENCH_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("ibridge-bench %v: %v\nstderr: %s", args, err, errb.String())
	}
	return out.String()
}

// TestCPUProfileFlag: -cpuprofile writes a non-empty pprof file and does
// not change a byte of the rendered tables.
func TestCPUProfileFlag(t *testing.T) {
	args := []string{"-exp", "fig2b,fig13", "-scale", "smoke"}
	plain := runBench(t, args...)
	if plain == "" {
		t.Fatal("no tables rendered")
	}
	prof := filepath.Join(t.TempDir(), "bench.prof")
	if profiled := runBench(t, append(args, "-cpuprofile", prof)...); profiled != plain {
		t.Errorf("-cpuprofile changed stdout:\n--- plain ---\n%s--- profiled ---\n%s", plain, profiled)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("profile %s: %v; want a non-empty file", prof, err)
	}
}
