package pfsnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// resilienceCluster starts one data server and a metadata server over it
// and returns a configured client plus the servers.
func resilienceCluster(t *testing.T, cfg ServerConfig, tune func(*Client)) (*Client, *DataServer, *MetaServer) {
	t.Helper()
	c, dss, ms := stripedCluster(t, 1, cfg, tune)
	return c, dss[0], ms
}

// stripedCluster starts n data servers striped at 64 KiB and a metadata
// server over them, and returns a configured client plus the servers.
// Every server gets cfg, so a cfg.Store would be shared among them.
func stripedCluster(t *testing.T, n int, cfg ServerConfig, tune func(*Client)) (*Client, []*DataServer, *MetaServer) {
	t.Helper()
	var dss []*DataServer
	var addrs []string
	for i := 0; i < n; i++ {
		ds, err := NewDataServerConfig("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		dss = append(dss, ds)
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := NewClient(ms.Addr())
	if tune != nil {
		tune(c)
	}
	t.Cleanup(func() { c.Close() })
	return c, dss, ms
}

// degraded reports whether c's breaker marks the server at addr open.
func degraded(c *Client, addr string) bool {
	c.mu.Lock()
	p := c.peers[addr]
	c.mu.Unlock()
	if p == nil {
		return false
	}
	p.br.mu.Lock()
	defer p.br.mu.Unlock()
	return p.br.open
}

// TestBreakerStateMachine unit-tests the count-based breaker: it opens
// after the threshold run of failures, admits exactly one probe at a
// time while open, fails other callers fast with ErrServerDown, and
// closes on the first success.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{}
	for i := 0; i < breakerThreshold; i++ {
		probe, err := b.acquire("srv")
		if probe || err != nil {
			t.Fatalf("failure %d: acquire = (%v, %v), want closed pass", i, probe, err)
		}
		b.record(probe, false)
	}
	if !b.open {
		t.Fatal("breaker not open after threshold failures")
	}
	// First caller while open becomes the probe.
	probe, err := b.acquire("srv")
	if !probe || err != nil {
		t.Fatalf("probe acquire = (%v, %v)", probe, err)
	}
	// A second caller while the probe is in flight fails fast.
	if _, err := b.acquire("srv"); !errors.Is(err, ErrServerDown) {
		t.Fatalf("concurrent acquire error = %v, want ErrServerDown", err)
	}
	// Failed probe leaves the breaker open for the next probe.
	if opened, closed := b.record(true, false); opened || closed {
		t.Fatal("failed probe must not transition the breaker")
	}
	probe, err = b.acquire("srv")
	if !probe || err != nil {
		t.Fatalf("re-probe acquire = (%v, %v)", probe, err)
	}
	// Successful probe closes it.
	if _, closed := b.record(true, true); !closed {
		t.Fatal("successful probe must close the breaker")
	}
	if b.open {
		t.Fatal("breaker still open after success")
	}
}

// TestIOTimeoutDeadline checks that a server that accepts requests but
// never answers in time fails the call with ErrDeadline.
func TestIOTimeoutDeadline(t *testing.T) {
	t.Run("maxproto=0", func(t *testing.T) {
		store := slowStore{ObjectStore: NewMemStore(), delay: time.Second}
		c, _, _ := resilienceCluster(t, ServerConfig{Store: store}, func(c *Client) {
			c.IOTimeout = 100 * time.Millisecond
			c.retries = 0
			c.Obs = obs.NewRegistry()
		})
		f, err := c.Create("slow", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = c.ReadAt(f, 0, make([]byte, 512))
		if err == nil {
			t.Fatal("read against stalled server succeeded")
		}
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("error = %v, want ErrDeadline", err)
		}
		if el := time.Since(start); el > 1500*time.Millisecond {
			t.Fatalf("deadline took %v, bound is 100ms", el)
		}
		if v := c.Obs.Counter("pfsnet.client.deadline_exceeded").Value(); v == 0 {
			t.Fatal("deadline_exceeded counter not incremented")
		}
	})
}

// TestBreakerOpensAndRecovers drives a client against a data server that
// dies: consecutive transport failures must mark the server degraded,
// and the first call after a restart is the probe that un-degrades it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	c, ds, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
		c.retries = 0 // one attempt per call: failures count singly
		c.Obs = obs.NewRegistry()
	})
	addr := ds.Addr()
	f, err := c.Create("brk", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, []byte("up")); err != nil {
		t.Fatal(err)
	}
	if degraded(c, addr) {
		t.Fatal("healthy server marked degraded")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Each call is one recorded failure; the threshold run opens the
	// breaker. Later calls are probes and keep failing.
	for i := 0; i < breakerThreshold+1; i++ {
		if err := c.WriteAt(f, 0, []byte("down")); err == nil {
			t.Fatalf("write %d against dead server succeeded", i)
		}
	}
	if !degraded(c, addr) {
		t.Fatal("server not degraded after consecutive failures")
	}
	if v := c.Obs.Counter("pfsnet.client.breaker_opens").Value(); v != 1 {
		t.Fatalf("breaker_opens = %d, want 1", v)
	}

	// Restart on the same address: the next call is the single probe,
	// succeeds, and closes the breaker.
	ds2, err := NewDataServerConfig(addr, ServerConfig{})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer ds2.Close()
	payload := []byte("recovered")
	if err := c.WriteAt(f, 0, payload); err != nil {
		t.Fatalf("probe write after restart: %v", err)
	}
	if degraded(c, addr) {
		t.Fatal("server still degraded after successful probe")
	}
	got := make([]byte, len(payload))
	if err := c.ReadAt(f, 0, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after recovery: %v", err)
	}
}

// TestRetriesRecoverFromInjectedResets arms a connection-reset plan on
// the client side: every reset kills a client connection mid-request,
// and the retry loop must still deliver every byte. With one server
// each request is a lone sub-request; with two, 192 KiB requests give
// the servers groups of two sub-requests, which a reset fails and the
// retry resends as a group.
func TestRetriesRecoverFromInjectedResets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		servers int
		size    int
	}{
		{"1 server", 1, 4096},
		{"2 servers striped", 2, 192 * 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := faults.MustParse("seed=3; reset=1/6")
			reg := obs.NewRegistry()
			plan.SetObs(reg)
			c, _, _ := stripedCluster(t, tc.servers, ServerConfig{}, func(c *Client) {
				c.FaultPlan = plan
				c.retries = 4
				c.Obs = reg
			})
			const rounds = 40
			f, err := c.Create("resets", rounds*int64(tc.size))
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, tc.size)
			for i := 0; i < rounds; i++ {
				for j := range payload {
					payload[j] = byte(i + j)
				}
				off := int64(i) * int64(tc.size)
				if err := c.WriteAt(f, off, payload); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				got := make([]byte, len(payload))
				if err := c.ReadAt(f, off, got); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("round %d: data mismatch under resets", i)
				}
			}
			if n := plan.Counts()["reset"]; n == 0 {
				t.Fatal("plan injected no resets over 80 requests")
			}
			if v := reg.Counter("pfsnet.client.retries").Value(); v == 0 {
				t.Fatal("no retries recorded despite injected resets")
			}
			if v := reg.Counter("faults.injected.reset").Value(); v != plan.Counts()["reset"] {
				t.Fatalf("obs mirror %d != plan count %d", v, plan.Counts()["reset"])
			}
		})
	}
}

// TestStripedProbeAfterRestart pins that an open breaker's probe is one
// caller's whole group. Server 0 dies and fails enough writes to open
// its breaker; after a restart on the same address, a 3-unit write
// sends two sub-requests to server 0. Both ride the one probe attempt,
// so the write succeeds and nothing fails fast.
func TestStripedProbeAfterRestart(t *testing.T) {
	reg := obs.NewRegistry()
	c, dss, _ := stripedCluster(t, 2, ServerConfig{}, func(c *Client) {
		c.retries = 0
		c.Obs = reg
	})
	const unit = 64 * 1024
	f, err := c.Create("probe", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	addr := dss[0].Addr()
	if err := dss[0].Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerThreshold; i++ { // unit 0 lives on server 0
		if err := c.WriteAt(f, 0, []byte("down")); err == nil {
			t.Fatalf("write %d against dead server succeeded", i)
		}
	}
	if !degraded(c, addr) {
		t.Fatal("breaker did not open")
	}
	ds, err := NewDataServerConfig(addr, ServerConfig{})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer ds.Close()

	payload := make([]byte, 3*unit) // units 0 and 2 on server 0, unit 1 on server 1
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := c.WriteAt(f, 0, payload); err != nil {
		t.Fatalf("striped write after restart: %v", err)
	}
	if v := reg.Counter("pfsnet.client.breaker_fastfails").Value(); v != 0 {
		t.Fatalf("breaker_fastfails = %d, want 0: the probe must carry the whole group", v)
	}
	if degraded(c, addr) {
		t.Fatal("breaker still open after the successful probe")
	}
	got := make([]byte, len(payload))
	if err := c.ReadAt(f, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped write did not read back exactly")
	}
}

// TestChaosDeterminism runs the same sequential workload twice under the
// same fault plan spec: the injected-fault counts and the client's
// retry/deadline counters must be identical — the property that makes a
// chaos failure reproducible from its plan seed.
func TestChaosDeterminism(t *testing.T) {
	run := func() (map[string]int64, map[string]int64) {
		plan := faults.MustParse("seed=11; reset=1/5")
		reg := obs.NewRegistry()
		plan.SetObs(reg)
		c, _, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
			c.FaultPlan = plan
			c.retries = 4
			c.Obs = reg
		})
		f, err := c.Create("det", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2048)
		for i := 0; i < 30; i++ {
			if err := c.WriteAt(f, int64(i)*2048, buf); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		counters := map[string]int64{}
		for _, k := range []string{
			"pfsnet.client.retries",
			"pfsnet.client.deadline_exceeded",
			"pfsnet.client.breaker_opens",
			"faults.injected.reset",
		} {
			counters[k] = reg.Counter(k).Value()
		}
		return plan.Counts(), counters
	}
	counts1, counters1 := run()
	counts2, counters2 := run()
	if fmt.Sprint(counts1) != fmt.Sprint(counts2) {
		t.Fatalf("fault counts differ across identical runs: %v vs %v", counts1, counts2)
	}
	if fmt.Sprint(counters1) != fmt.Sprint(counters2) {
		t.Fatalf("metric counters differ across identical runs: %v vs %v", counters1, counters2)
	}
	if counts1["reset"] == 0 {
		t.Fatal("plan fired nothing; determinism check is vacuous")
	}
}

// TestFallbackNegotiationUnderResets round-trips data while a reset plan
// kills connections: the hello must survive injected failures at dial
// time too, with every redial running it afresh.
func TestFallbackNegotiationUnderResets(t *testing.T) {
	t.Run("v2 client, v2 server", func(t *testing.T) {
		plan := faults.MustParse("seed=5; reset=1/7")
		c, _, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
			c.FaultPlan = plan
			c.retries = 5
		})
		f, err := c.Create("handshake", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 65*1024)
		for i := range payload {
			payload[i] = byte(i)
		}
		if err := c.WriteAt(f, 0, payload); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if err := c.ReadAt(f, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("data mismatch under resets")
		}
		if plan.Counts()["reset"] == 0 {
			t.Fatal("plan injected no resets; test is vacuous")
		}
	})
}

// TestCorruptionRecovery injects read-side frame corruption into the
// client's connections. Replies to writes carry empty payloads, so every
// flipped byte lands in a frame header: the client must detect it
// (ErrCorruptFrame) or time the stall out (ErrDeadline), drop the
// connection, and retry to success — never return corrupt data and never
// hang.
func TestCorruptionRecovery(t *testing.T) {
	plan := faults.MustParse("seed=7; corrupt=1/10")
	c, _, _ := resilienceCluster(t, ServerConfig{}, func(c *Client) {
		c.FaultPlan = plan
		c.IOTimeout = 250 * time.Millisecond
		c.retries = 6
	})
	f, err := c.Create("corrupt", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 1024)
	for i := 0; i < 30; i++ {
		if err := c.WriteAt(f, int64(i)*1024, payload); err != nil {
			t.Fatalf("write %d under corruption: %v", i, err)
		}
	}
	if plan.Counts()["corrupt"] == 0 {
		t.Fatal("no corruption injected; test is vacuous")
	}
	// A clean read at the end proves the writes all landed intact.
	clean := NewClient(c.metaAddr)
	defer clean.Close()
	got := make([]byte, 1024)
	for i := 0; i < 30; i++ {
		if err := clean.ReadAt(f, int64(i)*1024, got); err != nil {
			t.Fatalf("verify read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("block %d corrupted at rest", i)
		}
	}
}
