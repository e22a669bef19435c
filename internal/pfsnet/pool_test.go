package pfsnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// idleConns returns how many idle connections the client pools for addr.
func idleConns(c *Client, addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.peers[addr]; p != nil {
		return len(p.idle)
	}
	return 0
}

// waitServerConns polls s's connection registry until it holds want
// connections, failing the test after a few seconds.
func waitServerConns(t *testing.T, s *server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.connMu.Lock()
		n := len(s.conns)
		s.connMu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d connections, want %d", n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// resetSeed returns a seed whose "reset=1/64" schedule spares a plan's
// first k conn writes and fires on write k.
func resetSeed(t *testing.T, k int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 4096; seed++ {
		p := faults.MustParse(fmt.Sprintf("seed=%d; reset=1/64", seed))
		c1, c2 := net.Pipe()
		go io.Copy(io.Discard, c2)
		fc := p.WrapConn(c1, "probe")
		first := -1
		for i := 0; i <= k && first < 0; i++ {
			if _, err := fc.Write([]byte{1}); err != nil {
				first = i
			}
		}
		c1.Close()
		c2.Close()
		if first == k {
			return seed
		}
	}
	t.Fatalf("no seed resets write %d", k)
	return 0
}

// TestFlushAllAfterDroppedConn fails a connection to one data server
// with a client-scoped reset and then flushes every server: the failed
// server is still in the pool, so its acknowledged fragment is drained
// and counted in the total.
func TestFlushAllAfterDroppedConn(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ds, err := NewDataServer("127.0.0.1:0", true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", 64<<10, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	// Client conn writes, in order: 0 metadata hello, 1 Create, 2 srv0
	// hello, 3 srv0 write, 4 srv1 hello, 5 srv1 write, 6 srv1 write.
	plan := faults.MustParse(fmt.Sprintf("seed=%d; reset=1/64", resetSeed(t, 6)))
	c := NewIBridgeClient(ms.Addr(), 20<<10, 20<<10)
	c.FaultPlan = plan
	c.MaxRetries = -1
	defer c.Close()
	f, err := c.Create("flushall", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	frag := bytes.Repeat([]byte{0x6B}, 4096) // small: flagged random, so it goes to the fragment log
	for _, off := range []int64{0, 64 << 10} {
		if err := c.WriteAt(f, off, frag); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if err := c.WriteAt(f, 64<<10+8192, frag); err == nil {
		t.Fatal("write through the reset connection succeeded")
	}
	if n := plan.Counts()["reset"]; n != 1 {
		t.Fatalf("plan injected %d resets, want 1", n)
	}
	total, err := c.Flush(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * len(frag)); total != want {
		t.Fatalf("Flush(nil) drained %d bytes, want %d from both servers", total, want)
	}
}

// TestCloseDefersCheckedOutConn closes a client with one connection to
// a data server idle and another checked out by a call parked in the
// server's store: the idle one closes at once, the busy one when its
// call hands it back, and the server is left with no connection open.
func TestCloseDefersCheckedOutConn(t *testing.T) {
	ps := newParkStore()
	c, ds, _ := resilienceCluster(t, ServerConfig{Store: ps}, nil)
	f, err := c.Create("close", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ps.parkWrite = make(chan struct{})
	parked := make(chan error)
	go func() { parked <- c.WriteAt(f, 0, []byte("parked")) }()
	<-ps.entered
	// The parked call holds the one connection, so this dials a second.
	if err := c.WriteAt(f, 4096, []byte("idle")); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(c, ds.Addr()); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
	waitServerConns(t, &ds.server, 2)
	c.Close()
	waitServerConns(t, &ds.server, 1)
	ps.release <- struct{}{}
	if err := <-parked; err != nil {
		t.Fatalf("call in flight at Close: %v", err)
	}
	if n := idleConns(c, ds.Addr()); n != 0 {
		t.Fatalf("%d connections re-pooled after Close", n)
	}
	waitServerConns(t, &ds.server, 0)
}

// rendezvousStore holds each of its first n reads until all n have
// arrived. A server runs a connection's requests one at a time, so n
// reads held together prove n connections.
type rendezvousStore struct {
	ObjectStore
	arrived sync.WaitGroup
	left    atomic.Int64
}

func newRendezvousStore(n int) *rendezvousStore {
	s := &rendezvousStore{ObjectStore: NewMemStore()}
	s.arrived.Add(n)
	s.left.Store(int64(n))
	return s
}

func (s *rendezvousStore) ReadAt(file uint64, off int64, p []byte) error {
	if s.left.Add(-1) >= 0 {
		s.arrived.Done()
		s.arrived.Wait()
	}
	return s.ObjectStore.ReadAt(file, off, p)
}

// TestRestartWithWarmPool warms four connections to one data server
// with four concurrent callers, restarts the server on the same
// address, and sends four more requests. The first failure discards
// every stale connection, so each request needs at most one retry and
// the breaker stays closed; drawing the stale connections one by one
// would exhaust the first request's retries.
func TestRestartWithWarmPool(t *testing.T) {
	const callers = 4
	reg := obs.NewRegistry()
	c, ds, _ := resilienceCluster(t, ServerConfig{Store: newRendezvousStore(callers)}, func(c *Client) {
		c.RetryBackoff = time.Millisecond
		c.Obs = reg
	})
	addr := ds.Addr()
	f, err := c.Create("warm", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.ReadAt(f, int64(i)*4096, make([]byte, 4096))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := idleConns(c, addr); n != callers {
		t.Fatalf("%d idle connections after %d concurrent callers, want %d", n, callers, callers)
	}

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := NewDataServerConfig(addr, ServerConfig{})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer ds2.Close()
	retries := reg.Counter("pfsnet.client.retries")
	for i := 0; i < callers; i++ {
		before := retries.Value()
		if err := c.WriteAt(f, int64(i)*4096, []byte("after restart")); err != nil {
			t.Fatalf("request %d after restart: %v", i, err)
		}
		if n := retries.Value() - before; n > 1 {
			t.Fatalf("request %d after restart took %d retries, want at most 1", i, n)
		}
	}
	if n := retries.Value(); n != 1 {
		t.Fatalf("%d retries across the restart, want 1: the first failure drops every stale connection", n)
	}
	if c.ServerDegraded(addr) || reg.Counter("pfsnet.client.breaker_opens").Value() != 0 {
		t.Fatal("the breaker opened across the restart")
	}
}

// TestReplyTagMismatchIsCorrupt answers a request under another tag. A
// server answers a connection's requests in order, so the client takes
// any tag but the oldest unanswered one as a corrupt frame.
func TestReplyTagMismatchIsCorrupt(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	cn := newConn(client, dialOpts{})
	defer cn.close()
	go func() {
		fr, err := readFrame(bufio.NewReader(srv))
		if err != nil {
			return
		}
		fr.release()
		writeFrame(srv, fr.tag+1, opOK, nil)
	}()
	e := newEnc()
	e.u64(0)
	if _, err := cn.call(opFlush, e.b); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("reply under another tag: err = %v, want ErrCorruptFrame", err)
	}
}
