package main

import (
	"bufio"
	"bytes"
	"errors"
	"go/build"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/pfsnet"
)

// TestMain lets the test binary stand in for the command: re-executed
// with PFS_SERVER_MAIN set, it runs main with the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PFS_SERVER_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serverCmd returns the command re-executed with args.
func serverCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PFS_SERVER_MAIN=1")
	return cmd
}

// exitCode is the exit status of a finished command (0 on success).
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	}
	t.Fatal(err)
	return 0
}

// TestStoreFlagRejected: -store names mem or log; anything else, the
// retired file store included, is a usage error.
func TestStoreFlagRejected(t *testing.T) {
	for _, kind := range []string{"file", "bogus"} {
		var stderr bytes.Buffer
		cmd := serverCmd("-listen", "127.0.0.1:0", "-store", kind, "-store-dir", t.TempDir())
		cmd.Stderr = &stderr
		if code := exitCode(t, cmd.Run()); code != 2 {
			t.Errorf("-store %s: exit %d, want 2\nstderr: %s", kind, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "want mem or log") {
			t.Errorf("-store %s: stderr does not name the choices:\n%s", kind, stderr.String())
		}
	}
}

// TestUsageErrors: a malformed -faults plan and -store log without
// -store-dir are usage errors, like an unknown -store: a message naming
// the problem, the usage text, exit 2.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-faults", "ssdfail=srv0@250ms"}, "-faults: "},
		{[]string{"-faults", "bogus"}, "-faults: "},
		{[]string{"-store", "log"}, "-store log requires -store-dir"},
	} {
		var stderr bytes.Buffer
		cmd := serverCmd(append([]string{"-listen", "127.0.0.1:0"}, c.args...)...)
		cmd.Stderr = &stderr
		if code := exitCode(t, cmd.Run()); code != 2 {
			t.Errorf("%q: exit %d, want 2\nstderr: %s", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) || !strings.Contains(stderr.String(), "Usage of") {
			t.Errorf("%q: stderr lacks %q or the usage text:\n%s", c.args, c.want, stderr.String())
		}
	}
}

// TestSIGTERMDrainsBridge: SIGTERM, the signal kill and service managers
// send, shuts the server down like SIGINT. A flagged write acknowledged
// from the heap fragment log is drained into the log store, so a reopen
// of the store finds it, and the process exits 0.
func TestSIGTERMDrainsBridge(t *testing.T) {
	dir := t.TempDir()
	cmd := serverCmd("-listen", "127.0.0.1:0", "-ibridge", "-store", "log", "-store-dir", dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// The log goes on being read after the address is found, so the
	// server never blocks on a full pipe.
	addrc := make(chan string, 1)
	var logTail bytes.Buffer
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logTail.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not report its address")
	}

	ms, err := pfsnet.NewMetaServer("127.0.0.1:0", 64*1024, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := pfsnet.NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA7}, 4096)
	if err := c.WriteAt(f, 512, payload); err != nil { // below the threshold: flagged
		t.Fatal(err)
	}
	c.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-logDone
	if code := exitCode(t, cmd.Wait()); code != 0 {
		t.Fatalf("exit %d after SIGTERM, want 0\nlog:\n%s", code, logTail.String())
	}
	ls, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	got := make([]byte, len(payload))
	if err := ls.ReadAt(uint64(f.ID), 512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("acknowledged fragment lost on SIGTERM\nlog:\n%s", logTail.String())
	}
}

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
