package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir   = ".bench_build" // everything the benchmark writes lives here
	nServers   = 4
	stripeUnit = 64 << 10
	// readyTimeout bounds how long a started server may take to accept;
	// stopTimeout how long it may take to close its store after SIGINT.
	readyTimeout = 10 * time.Second
	stopTimeout  = 20 * time.Second
)

// build compiles the commands under test from the tree at root into
// root/.bench_build/bin and returns that directory and the wall time.
func build(ctx context.Context, root string) (string, float64, error) {
	bins := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bins, 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bins+string(filepath.Separator),
		"./cmd/pfs-meta", "./cmd/pfs-server", "./cmd/ibridge-sim", "./cmd/ibridge-bench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return bins, time.Since(t0).Seconds(), nil
}

// child is one process under test. Its standard error goes to a log
// file in the run's scratch directory, shown when the process fails.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once Wait returned
}

func startChild(name, logPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	c := &child{name: name, cmd: exec.Command(bin, args...), log: logPath, done: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		// The exit status is read from ProcessState by wait.
		_ = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// interrupt asks the child to shut down (so a log store closes cleanly).
// An already exited child makes Signal fail; wait reports why it exited.
func (c *child) interrupt() { _ = c.cmd.Process.Signal(os.Interrupt) }

// wait waits for an interrupted child, kills it if it overstays, and
// returns its resource usage.
func (c *child) wait() (syscall.Rusage, error) {
	var err error
	select {
	case <-c.done:
	case <-time.After(stopTimeout):
		_ = c.cmd.Process.Kill()
		<-c.done
		err = fmt.Errorf("%s ignored SIGINT for %v; killed", c.name, stopTimeout)
	}
	ps := c.cmd.ProcessState
	if err == nil && !ps.Success() {
		err = fmt.Errorf("%s: %v\n%s", c.name, ps, c.logTail())
	}
	ru, _ := ps.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return syscall.Rusage{}, fmt.Errorf("%s: no resource usage", c.name)
	}
	return *ru, err
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

func (c *child) logTail() string {
	b, err := os.ReadFile(c.log)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// awaitReady dials the child's address until it accepts, the child
// exits, or the timeout passes.
func (c *child) awaitReady(ctx context.Context, addr string) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
		}
		select {
		case <-c.done:
			// Also after a dial that succeeded: then another process
			// owns the port and the child failed to bind it.
			return fmt.Errorf("%s exited before accepting on %s: %v\n%s", c.name, addr, c.cmd.ProcessState, c.logTail())
		default:
		}
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not accepting on %s after %v: %v", c.name, addr, readyTimeout, err)
		}
	}
}

// cpuTime reads the CPU time (user+system) a live process has used so
// far from /proc, so a leg can charge the servers for its own window.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks of 10 ms.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc stat of %s: short line", c.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat of %s: bad times %q %q", c.name, f[11], f[12])
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procCluster is the system under test of the end-to-end legs: one
// pfs-meta and four pfs-server -ibridge -store log, each its own
// process, talking over loopback TCP, default knobs only.
type procCluster struct {
	meta    string
	servers []*child // data servers in stripe order
	metaSrv *child
}

// freeAddrs asks the kernel for n unused loopback ports, holding all n
// open at once so that they differ. They are released before the
// children bind them, so a start can still lose a port to another
// process; startProcCluster retries the whole bring-up then.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func startProcCluster(ctx context.Context, bins, dir string) (*procCluster, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var c *procCluster
		if c, err = tryStartProcCluster(ctx, bins, filepath.Join(dir, fmt.Sprintf("try%d", attempt))); err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, err
}

func tryStartProcCluster(ctx context.Context, bins, dir string) (_ *procCluster, err error) {
	c := &procCluster{}
	defer func() {
		if err != nil {
			c.kill()
		}
	}()
	addrs, err := freeAddrs(nServers + 1)
	if err != nil {
		return nil, err
	}
	c.meta, addrs = addrs[nServers], addrs[:nServers]
	for i, addr := range addrs {
		name := fmt.Sprintf("srv%d", i)
		store := filepath.Join(dir, name)
		if err := os.MkdirAll(store, 0o755); err != nil {
			return nil, err
		}
		srv, err := startChild(name, filepath.Join(dir, name+".log"), filepath.Join(bins, "pfs-server"),
			"-listen", addr, "-ibridge", "-store", "log", "-store-dir", store)
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	c.metaSrv, err = startChild("meta", filepath.Join(dir, "meta.log"), filepath.Join(bins, "pfs-meta"),
		"-listen", c.meta, "-unit", strconv.Itoa(stripeUnit), "-servers", strings.Join(addrs, ","))
	if err != nil {
		return nil, err
	}
	for i, p := range c.all() {
		addr := c.meta
		if i > 0 {
			addr = addrs[i-1]
		}
		if err := p.awaitReady(ctx, addr); err != nil {
			return nil, err
		}
	}
	// A child that lost its port to another process exits within
	// milliseconds of starting; by now it has, and is caught here even
	// if the dial above reached the port's other owner.
	for _, p := range c.all() {
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.cmd.ProcessState, p.logTail())
		default:
		}
	}
	return c, nil
}

func (c *procCluster) all() []*child {
	if c.metaSrv == nil {
		return c.servers
	}
	return append([]*child{c.metaSrv}, c.servers...)
}

// stop shuts every process down cleanly and returns the data servers'
// resource usage, in stripe order.
func (c *procCluster) stop() ([]syscall.Rusage, error) {
	var first error
	var usage []syscall.Rusage
	for _, p := range c.all() {
		p.interrupt()
	}
	for _, p := range c.all() {
		ru, err := p.wait()
		if err != nil && first == nil {
			first = err
		}
		if p != c.metaSrv {
			usage = append(usage, ru)
		}
	}
	return usage, first
}

func (c *procCluster) kill() {
	for _, p := range c.all() {
		p.kill()
	}
}

// serverCPU sums the data servers' CPU time so far.
func (c *procCluster) serverCPU() (time.Duration, error) {
	var sum time.Duration
	for _, s := range c.servers {
		d, err := s.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// rssMB converts a Linux ru_maxrss (KiB) to MB.
func rssMB(ru syscall.Rusage) float64 { return float64(ru.Maxrss) * 1024 / mb }

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
