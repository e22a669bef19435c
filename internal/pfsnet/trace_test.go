package pfsnet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestTracingInterop checks the trace context against a tracing server,
// from a traced client and from a plain one. The data path must be
// byte-identical in both: tracing changes frame headers, never payload
// bytes, and a client without a tracer sends no trace context, so the
// server records no spans for it.
func TestTracingInterop(t *testing.T) {
	payload := make([]byte, 65*1024) // unaligned: exercises the fragment path
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cases := []struct {
		name        string
		clientTrace bool
	}{
		{"plain client, traced server", false},
		{"traced client, traced server", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srvTracer := obs.NewXTracer("srv0", 0)
			ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{
				Bridge: true,
				Tracer: srvTracer,
			})
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
			var cliTracer *obs.XTracer
			if tc.clientTrace {
				cliTracer = obs.NewXTracer("client", 0)
				c.Tracer = cliTracer
			}

			f, err := c.Create("interop", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteAt(f, 0, payload); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			if err := c.ReadAt(f, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("data mismatch")
			}

			c.Close()

			if !tc.clientTrace {
				// No trace context on the wire means no server-side spans,
				// even though the server brought a tracer.
				if n := srvTracer.Len(); n != 0 {
					t.Fatalf("server recorded %d spans for untraced frames", n)
				}
				return
			}

			// Client side: one parent span per WriteAt/ReadAt.
			names := map[string]int{}
			byID := map[uint64]obs.XEvent{}
			for _, ev := range cliTracer.Events() {
				names[ev.Name]++
				if ev.Span != 0 {
					byID[ev.Span] = ev
				}
			}
			if names["WriteAt"] != 1 || names["ReadAt"] != 1 {
				t.Fatalf("client spans = %v, want one WriteAt and one ReadAt", names)
			}

			// Server side: the respond span closes after the flush, which
			// can trail the client's receive — poll briefly.
			want := []string{"queue-wait", "store", "respond"}
			deadline := time.Now().Add(2 * time.Second)
			var srvEvents []obs.XEvent
			for {
				srvEvents = srvTracer.Events()
				counts := map[string]int{}
				for _, ev := range srvEvents {
					counts[ev.Name]++
				}
				ok := true
				for _, n := range want {
					if counts[n] == 0 {
						ok = false
					}
				}
				if ok || time.Now().After(deadline) {
					if !ok {
						t.Fatalf("server span names = %v, want all of %v", counts, want)
					}
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			// Every server span must hang off a real client parent span
			// under the same trace id.
			for _, ev := range srvEvents {
				parent, ok := byID[ev.Parent]
				if !ok {
					t.Fatalf("server span %q parent %016x not found among client spans", ev.Name, ev.Parent)
				}
				if ev.Trace != parent.Trace {
					t.Fatalf("server span %q trace %016x != parent trace %016x", ev.Name, ev.Trace, parent.Trace)
				}
			}

			// The merged view must render both processes on one timeline.
			var buf bytes.Buffer
			if err := obs.WriteChromeX(&buf, append(cliTracer.Events(), srvEvents...)); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string                 `json:"name"`
					Ph   string                 `json:"ph"`
					Args map[string]interface{} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("merged trace is not valid JSON: %v", err)
			}
			procs := map[string]bool{}
			for _, ev := range doc.TraceEvents {
				if ev.Name == "process_name" {
					procs[ev.Args["name"].(string)] = true
				}
			}
			if !procs["client"] || !procs["srv0"] {
				t.Fatalf("merged trace processes = %v, want client and srv0", procs)
			}
		})
	}
}

// TestServerLatencySeparation makes one of two data servers a straggler
// with a scoped latency fault and checks the client's per-server latency
// histograms tell the two servers apart.
func TestServerLatencySeparation(t *testing.T) {
	// 25ms of injected straggle: wide enough that scheduler jitter or
	// race-detector overhead on the fast server cannot close the gap.
	plan := faults.MustParse("seed=7; latency=srv1:25ms")
	var addrs []string
	for i := 0; i < 2; i++ {
		scope := "srv0"
		var p *faults.Plan
		if i == 1 {
			scope, p = "srv1", plan
		}
		ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{
			Store:      NewMemStore(),
			FaultPlan:  p,
			FaultScope: scope,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	c.Obs = obs.NewRegistry()
	defer c.Close()

	f, err := c.Create("skew", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0xC3}, 64*1024)
	if err := c.WriteAt(f, 0, bytes.Repeat(block, 2)); err != nil {
		t.Fatal(err)
	}
	// Aligned single-server reads: even offsets land on srv0, odd on the
	// straggler. Enough of them to fill both histograms.
	got := make([]byte, 64*1024)
	for i := 0; i < 50; i++ {
		if err := c.ReadAt(f, int64(i%2)*64*1024, got); err != nil {
			t.Fatal(err)
		}
	}

	snap := c.Obs.Snapshot()
	p95 := func(addr string) float64 {
		v, _ := snap["pfsnet.client.server."+addr+".read.p95_ms"].(float64)
		return v
	}
	slow, fast := p95(addrs[1]), p95(addrs[0])
	if slow < 15.0 {
		t.Fatalf("straggler p95 = %.2fms, want >= 15ms from the injected 25ms latency", slow)
	}
	if slow <= fast*1.5 {
		t.Fatalf("histograms do not separate the straggler: srv1 p95 %.2fms vs srv0 p95 %.2fms", slow, fast)
	}
}

// TestServerLatencyCounts checks that each (server, class) latency
// histogram counts exactly the requests that server answered: a striped
// 192 KiB write and read put two units on one server and one on the
// other, and the two units go as one run, so each server answers one
// write, one read and one flush.
func TestServerLatencyCounts(t *testing.T) {
	c, dss, _ := stripedCluster(t, 2, ServerConfig{}, func(c *Client) { c.Obs = obs.NewRegistry() })
	f, err := c.Create("counts", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 192*1024)
	if err := c.WriteAt(f, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadAt(f, 0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(f); err != nil {
		t.Fatal(err)
	}
	snap := c.Obs.Snapshot()
	for i, ds := range dss {
		st := ds.Stats()
		if st.Reads != 1 || st.Writes != 1 || st.Flushes != 1 {
			t.Fatalf("server %d answered %d reads, %d writes, %d flushes; want 1, 1, 1", i, st.Reads, st.Writes, st.Flushes)
		}
		for class, want := range map[string]int64{"read": st.Reads, "write": st.Writes, "flush": st.Flushes} {
			key := "pfsnet.client.server." + ds.Addr() + "." + class + ".count"
			if got, _ := snap[key].(float64); int64(got) != want {
				t.Errorf("%s = %v, want the %d requests server %d answered", key, snap[key], want, i)
			}
		}
	}
}

// TestTraceNilPathAllocs pins the zero-cost-when-nil contract for the
// per-request observability hooks: with no tracer or registry, the
// parent-request and latency paths must not allocate.
func TestTraceNilPathAllocs(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	allocs := testing.AllocsPerRun(1000, func() {
		pr := c.startParent("ReadAt", "read")
		c.finishParent(pr)
		p, _ := c.checkout("x")
		if p.lm != nil {
			t.Fatal("latency histograms armed without a registry")
		}
		p.lm.observe(opRead, time.Time{})
	})
	if allocs != 0 {
		t.Fatalf("nil-observability request path allocates %.1f/op, want 0", allocs)
	}
}
