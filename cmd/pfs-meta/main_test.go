package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with PFS_META_MAIN set, it runs main with the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PFS_META_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageErrors: a missing -servers and a malformed -faults plan are
// usage errors: a message naming the problem, the usage text, exit 2.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-servers is required"},
		{[]string{"-servers", "127.0.0.1:7001", "-faults", "ssdfail=srv0@250ms"}, "-faults: "},
		{[]string{"-servers", "127.0.0.1:7001", "-faults", "bogus"}, "-faults: "},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(os.Args[0], append([]string{"-listen", "127.0.0.1:0"}, c.args...)...)
		cmd.Env = append(os.Environ(), "PFS_META_MAIN=1")
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: %v, want exit 2\nstderr: %s", c.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) || !strings.Contains(stderr.String(), "Usage of") {
			t.Errorf("%q: stderr lacks %q or the usage text:\n%s", c.args, c.want, stderr.String())
		}
	}
}
