package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// is a usage error.
func TestGeometryRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-file", "1", "-procs", "64"},
		{"-file", "1", "-procs", "0"},
		{"-file", "1", "-size", "0"},
		{"-file", "1", "-procs", "2", "-shift", "-1"},
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
