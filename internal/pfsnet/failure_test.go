package pfsnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/stripe"
)

// TestClientSurvivesServerRestart kills a data server mid-session and
// restarts it on the same address with the same (persistent) object
// store; the client's pooled connection has died, so its transparent
// redial must recover.
func TestClientSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	ls1, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: ls1})
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	defer c.Close()

	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 8192)
	if err := c.WriteAt(f, 4096, payload); err != nil {
		t.Fatalf("write before restart: %v", err)
	}

	// Crash the server (flushes and closes the store) and restart it on
	// the same address over the same directory.
	if err := ds.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ls2, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := NewDataServerConfig(addr, ServerConfig{Store: ls2})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer ds2.Close()

	// The client's pooled connection is dead; this read must redial
	// transparently and find the persisted data.
	got := make([]byte, len(payload))
	if err := c.ReadAt(f, 4096, got); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost across restart")
	}
	// Writes after the restart work too.
	if err := c.WriteAt(f, 0, []byte("post-restart")); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
}

// slowStore delays reads so the test can reliably have many requests in
// flight inside the server when the connection is severed.
type slowStore struct {
	ObjectStore
	delay time.Duration
}

func (s slowStore) ReadAt(file uint64, off int64, p []byte) error {
	time.Sleep(s.delay)
	return s.ObjectStore.ReadAt(file, off, p)
}

// TestPipelinedInFlightFailure kills a data server while many requests
// are in flight, each on its own pooled connection. Every caller must
// get an answer promptly — a result or an error, never a
// hang — and once the server is back on the same address the client's
// transparent redial must restore service.
func TestPipelinedInFlightFailure(t *testing.T) {
	store := slowStore{ObjectStore: NewMemStore(), delay: 30 * time.Millisecond}
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	defer c.Close()

	f, err := c.Create("inflight", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, bytes.Repeat([]byte{0xAB}, 64*1024)); err != nil {
		t.Fatal(err)
	}

	// Many concurrent reads: the pool grows to one connection per
	// caller, and all of them are in the server when it dies.
	const inflight = 32
	var wg sync.WaitGroup
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := make([]byte, 1024)
			results <- c.ReadAt(f, int64(i)*1024, p)
		}(i)
	}

	// Let the requests reach the server, then sever every connection
	// mid-flight. Close blocks until the connection goroutines finish
	// their current requests, so run it off to the side.
	time.Sleep(10 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- ds.Close() }()

	// Every caller must complete promptly: a hang here would be a
	// reply read that no socket error or close ever ends.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight requests hung after server death")
	}
	close(results)
	var failed int
	for err := range results {
		if err != nil {
			failed++
		}
	}
	t.Logf("in-flight outcomes: %d ok, %d failed", inflight-failed, failed)
	if err := <-closed; err != nil {
		t.Fatalf("server close: %v", err)
	}
	// The mass kill fed the breaker a run of transport failures well past
	// its threshold: the server must be marked degraded before the
	// restart, and the probe on the first post-restart call must clear it.
	if !c.ServerDegraded(addr) {
		t.Fatal("breaker did not open after mass in-flight failure")
	}

	// Restart on the same address; the client must redial transparently.
	ds2, err := NewDataServerConfig(addr, ServerConfig{Store: NewMemStore()})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer ds2.Close()
	payload := []byte("service restored")
	if err := c.WriteAt(f, 0, payload); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	if c.ServerDegraded(addr) {
		t.Fatal("breaker still open after successful post-restart probe")
	}
	got := make([]byte, len(payload))
	if err := c.ReadAt(f, 0, got); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data mismatch after restart")
	}
}

// TestConcurrentMixedLoad hammers one bridge server with concurrent
// reads, fragment writes, and direct writes — the lock-split server must
// keep every interleaving coherent (run with -race to check the
// synchronization of the log table, counters, and store).
func TestConcurrentMixedLoad(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	defer c.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := c.Create(fmt.Sprintf("mixed-%d", w), 1<<20)
			if err != nil {
				errs <- err
				return
			}
			// Each worker owns its file, so its own reads must observe
			// its own writes regardless of cross-file interleaving.
			want := bytes.Repeat([]byte{byte(w + 1)}, 4096)
			for i := 0; i < 50; i++ {
				off := int64(i%16) * 4096
				if err := c.WriteAt(f, off, want); err != nil {
					errs <- err
					return
				}
				got := make([]byte, len(want))
				if err := c.ReadAt(f, off, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d: read back mismatch at %d", w, off)
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteErrorNotRetried ensures server-reported errors surface
// immediately instead of being retried as transport failures.
func TestRemoteErrorNotRetried(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	defer c.Close()
	if _, err := c.Open("missing"); err == nil {
		t.Fatal("expected remote error")
	} else if _, ok := err.(remoteError); !ok {
		t.Fatalf("error type %T, want remoteError", err)
	}
	readsBefore := ds.Stats().Reads
	// A negative-length read triggers a server-side error exactly once.
	err = c.send(ds.Addr(), opRead, make([]dataReq, 1), func(stripe.Sub) []byte {
		var e enc
		e.u64(1)
		e.i64(0)
		e.i64(-5)
		return e.b
	}, nil)
	if err == nil {
		t.Fatal("bad read accepted")
	}
	if got := ds.Stats().Reads - readsBefore; got != 0 {
		t.Fatalf("server counted %d reads for a rejected request", got)
	}
}
