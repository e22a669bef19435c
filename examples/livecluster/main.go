// Live cluster: start a real pfsnet metadata server and four data servers
// over TCP in-process, then do striped file I/O through the network
// client — including an unaligned write whose fragment takes the iBridge
// log path at its data server.
//
// Run with: go run ./examples/livecluster
//
// With -faults the demo becomes a deterministic chaos walkthrough: the
// plan's connection faults are injected into the client's conns, crash
// events (crash=srvN@OP+DOWN) stop and restart data servers at fixed
// operation indexes, and SSD-failure clauses (ssdfail=srvN@WRITES)
// degrade a server's fragment log mid-run. The driver issues a fixed
// sequence of writes, re-issues any that failed while a server was down,
// and verifies every byte at the end. Each data server keeps its objects
// in a crash-consistent log store (internal/logstore) that outlives its
// crashes. The chaos summary it prints is reproducible from the plan
// seed:
//
//	go run ./examples/livecluster -faults 'seed=42; reset=1%; crash=srv1@60+60'
//
// With -spans-dir the chaos run also records cross-process trace spans:
// the client and every data server get their own obs.XTracer (the same
// wiring a real deployment gets from pfs-server -span-file), trace
// contexts propagate on the wire behind flagged frame headers, and one
// span file per logical process lands in the directory. Merge them with
//
//	ibridge-trace -merge -o chaos-trace.json dir/client.spans dir/srv*.spans
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/pfsnet"
)

const (
	nServers   = 4
	stripeUnit = 64 * 1024
	// blockLen is deliberately unaligned so every block spills a
	// fragment onto the next server.
	blockLen = 65 * 1024
)

func main() {
	faultSpec := flag.String("faults", "", "deterministic fault plan (see internal/faults); enables the chaos walkthrough")
	ops := flag.Int("ops", 200, "chaos mode: number of sequential block writes")
	spansDir := flag.String("spans-dir", "", "chaos mode: write per-process span files (client.spans, srvN.spans) here; merge with 'ibridge-trace -merge'")
	flag.Parse()
	if *faultSpec == "" {
		demo()
		return
	}
	plan, err := faults.Parse(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	chaos(plan, *ops, *spansDir)
}

// demo is the original fault-free walkthrough.
func demo() {
	// Start four iBridge-enabled data servers on ephemeral ports.
	var dataAddrs []string
	var servers []*pfsnet.DataServer
	for i := 0; i < nServers; i++ {
		ds, err := pfsnet.NewDataServer("127.0.0.1:0", true)
		if err != nil {
			log.Fatal(err)
		}
		defer ds.Close()
		servers = append(servers, ds)
		dataAddrs = append(dataAddrs, ds.Addr())
		fmt.Printf("data server %d on %s\n", i, ds.Addr())
	}

	// Metadata server with a 64 KB striping unit.
	ms, err := pfsnet.NewMetaServer("127.0.0.1:0", stripeUnit, dataAddrs)
	if err != nil {
		log.Fatal(err)
	}
	defer ms.Close()
	fmt.Printf("metadata server on %s\n\n", ms.Addr())

	// An iBridge client: sub-requests below 20 KB that belong to larger
	// striped parents are flagged as fragments on the wire. Each server's
	// sub-requests go out pipelined on one pooled connection; the obs
	// registry collects the client-side wire metrics (frames, bytes,
	// in-flight depth).
	reg := obs.NewRegistry()
	client := pfsnet.NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	client.Obs = reg
	defer client.Close()

	f, err := client.Create("demo", 10<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %q: %d bytes striped over %d servers (unit %d)\n",
		f.Name, f.Size, f.Layout().Servers, f.Layout().Unit)

	// A 65 KB write: 64 KB to server 0 plus a 1 KB fragment to server 1.
	payload := bytes.Repeat([]byte("iBridge!"), 65*1024/8)
	if err := client.WriteAt(f, 0, payload); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes at offset 0 (unaligned: generates a 1KB fragment)\n", len(payload))

	// Read it back across the servers and verify.
	got := make([]byte, len(payload))
	if err := client.ReadAt(f, 0, got); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("data mismatch")
	}
	fmt.Println("read back and verified byte-for-byte")

	fmt.Println("\nper-server statistics:")
	for i, ds := range servers {
		st := ds.Stats()
		fmt.Printf("  server %d: %d writes (%d via fragment log, %d log bytes), %d reads\n",
			i, st.Writes, st.FragmentWrites, st.LogBytes, st.Reads)
	}

	fmt.Println("\nclient wire metrics:")
	fmt.Print(reg.Render())
}

// chaosServer is one data server slot the crash schedule can stop and
// restart on a stable address with its log store.
type chaosServer struct {
	scope string
	addr  string
	dir   string
	// tracer outlives crashes: a restarted server keeps appending spans
	// to its slot's buffer, so the span file covers the whole run.
	tracer *obs.XTracer
	ds     *pfsnet.DataServer // nil while crashed
	// Cumulative recovery counters across this slot's restarts: every
	// restart replays the journal, and with the op-indexed crash
	// schedule both totals are deterministic — they belong in the CHAOS
	// SUMMARY.
	replays, tornTails int64
}

func (s *chaosServer) start(plan *faults.Plan) error {
	ls, err := logstore.Open(s.dir, logstore.Config{Scope: s.scope})
	if err != nil {
		return err
	}
	st := ls.Stats()
	s.replays += st.Replays
	s.tornTails += st.TruncatedTails
	ds, err := pfsnet.NewDataServerConfig(s.addr, pfsnet.ServerConfig{
		Bridge:     true,
		Store:      ls,
		Tracer:     s.tracer,
		FaultPlan:  plan,
		FaultScope: s.scope,
	})
	if err != nil {
		return err
	}
	s.addr = ds.Addr()
	s.ds = ds
	return nil
}

// chaos runs the deterministic fault walkthrough: ops sequential
// unaligned block writes while the plan injects faults, then full byte
// verification and a reproducible summary.
func chaos(plan *faults.Plan, ops int, spansDir string) {
	fmt.Printf("chaos plan: %s (seed %d)\n", plan.String(), plan.Seed())
	root, err := os.MkdirTemp("", "livecluster-chaos-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// Data servers get stable scopes srv0..srvN-1 and log stores so a
	// crashed server restarts on the same address with its data intact.
	servers := make([]*chaosServer, nServers)
	var dataAddrs []string
	for i := range servers {
		servers[i] = &chaosServer{
			scope: fmt.Sprintf("srv%d", i),
			addr:  "127.0.0.1:0",
			dir:   filepath.Join(root, fmt.Sprintf("srv%d", i)),
		}
		if spansDir != "" {
			servers[i].tracer = obs.NewXTracer(servers[i].scope, 0)
		}
		if err := os.MkdirAll(servers[i].dir, 0o755); err != nil {
			log.Fatal(err)
		}
		if err := servers[i].start(plan); err != nil {
			log.Fatal(err)
		}
		dataAddrs = append(dataAddrs, servers[i].addr)
		fmt.Printf("data server %s on %s\n", servers[i].scope, servers[i].addr)
	}
	defer func() {
		for _, s := range servers {
			if s.ds != nil {
				s.ds.Close()
			}
		}
	}()
	ms, err := pfsnet.NewMetaServer("127.0.0.1:0", stripeUnit, dataAddrs)
	if err != nil {
		log.Fatal(err)
	}
	defer ms.Close()

	// The resilient client: plan-injected conn faults, deterministic
	// retry jitter from the plan seed, deadlines, breaker on.
	reg := obs.NewRegistry()
	plan.SetObs(reg)
	var clientTracer *obs.XTracer
	if spansDir != "" {
		// The client tracer also receives the plan's fault instants, so
		// injected resets/crashes show up on the merged timeline next to
		// the requests they disturbed.
		clientTracer = obs.NewXTracer("client", 0)
		clientTracer.SetDropCounter(reg.Counter("obs.trace.dropped_events"))
		plan.SetTracer(clientTracer)
	}
	client := pfsnet.NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	client.Obs = reg
	client.Tracer = clientTracer
	client.FaultPlan = plan
	client.FaultScope = "client"
	client.Seed = plan.Seed()
	client.IOTimeout = 5 * time.Second
	client.RetryBackoff = time.Millisecond
	defer client.Close()

	f, err := client.Create("chaos", int64(ops)*blockLen+stripeUnit)
	if err != nil {
		log.Fatal(err)
	}

	// The crash schedule is op-indexed: before issuing op i the driver
	// applies every event scheduled at i, so two runs of the same plan
	// crash and restart at exactly the same points in the request
	// sequence.
	events := plan.Events()
	next := 0
	applyEvents := func(op int) {
		for ; next < len(events) && events[next].Op <= op; next++ {
			ev := events[next]
			var target *chaosServer
			for _, s := range servers {
				if s.scope == ev.Scope {
					target = s
					break
				}
			}
			if target == nil {
				log.Fatalf("chaos: crash event names unknown scope %q", ev.Scope)
			}
			switch ev.Kind {
			case faults.ServerDown:
				if target.ds != nil {
					target.ds.Close()
					target.ds = nil
					plan.NoteCrash()
					fmt.Printf("op %4d: crashed %s\n", op, target.scope)
				}
			case faults.ServerUp:
				if target.ds == nil {
					if err := target.start(plan); err != nil {
						log.Fatalf("chaos: restart %s: %v", target.scope, err)
					}
					fmt.Printf("op %4d: restarted %s on %s\n", op, target.scope, target.addr)
				}
			}
		}
	}

	block := func(i int) []byte {
		b := make([]byte, blockLen)
		x := faults.Mix64(plan.Seed() ^ uint64(i))
		for j := range b {
			b[j] = byte(faults.Mix64(x+uint64(j>>3)) >> uint(8*(j&7)))
		}
		return b
	}

	var failedOps []int
	for i := 0; i < ops; i++ {
		applyEvents(i)
		if err := client.WriteAt(f, int64(i)*blockLen, block(i)); err != nil {
			// Expected while a server is down: the breaker fails fast
			// and the driver re-issues after the restart.
			failedOps = append(failedOps, i)
		}
	}
	applyEvents(int(^uint(0) >> 1)) // flush any events scheduled past the last op
	fmt.Printf("first pass: %d/%d writes landed, %d deferred during downtime\n",
		ops-len(failedOps), ops, len(failedOps))

	// Re-issue the writes that failed while a server was down. All
	// servers are up now, so every one must land.
	for _, i := range failedOps {
		if err := client.WriteAt(f, int64(i)*blockLen, block(i)); err != nil {
			log.Fatalf("chaos: re-issued write %d failed with all servers up: %v", i, err)
		}
	}

	// Full verification: every block must read back byte-for-byte.
	got := make([]byte, blockLen)
	for i := 0; i < ops; i++ {
		if err := client.ReadAt(f, int64(i)*blockLen, got); err != nil {
			log.Fatalf("chaos: verify read %d: %v", i, err)
		}
		if !bytes.Equal(got, block(i)) {
			log.Fatalf("chaos: block %d corrupted", i)
		}
	}
	fmt.Printf("verified %d blocks (%d MB) byte-for-byte\n", ops, int64(ops)*blockLen>>20)

	// Span files are written (and reported) before the summary: span
	// counts depend on retry timing, so they must stay out of the
	// reproducible CHAOS SUMMARY section.
	if spansDir != "" {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			log.Fatal(err)
		}
		writeSpans := func(name string, tr *obs.XTracer) {
			path := filepath.Join(spansDir, name+".spans")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := tr.WriteSpans(f); err != nil {
				log.Fatalf("chaos: span file %s: %v", path, err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("chaos: span file %s: %v", path, err)
			}
			fmt.Printf("spans: %d events to %s\n", tr.Len(), path)
		}
		writeSpans("client", clientTracer)
		for _, s := range servers {
			writeSpans(s.scope, s.tracer)
		}
	}

	// The summary below is the reproducibility contract: a second run of
	// the same plan must print identical lines (ephemeral ports and
	// timings deliberately excluded).
	fmt.Println("\nCHAOS SUMMARY")
	fmt.Printf("plan: %s\n", plan.String())
	fmt.Printf("faults injected: %s\n", plan.CountsString())
	fmt.Printf("deferred-during-downtime: %d\n", len(failedOps))
	// Every restart replays the journal; with the op-indexed crash
	// schedule the totals are deterministic. Torn tails stay 0 here
	// because livecluster "crashes" close the process cleanly — the
	// mid-write kill loop lives in cmd/logstore-chaos.
	var replays, torn int64
	for _, s := range servers {
		replays += s.replays
		torn += s.tornTails
	}
	fmt.Printf("logstore.replays: %d\n", replays)
	fmt.Printf("logstore.truncated_tails: %d\n", torn)
	vals := reg.CounterValues()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		if k == "pfsnet.client.retries" || k == "pfsnet.client.breaker_opens" ||
			k == "pfsnet.client.breaker_fastfails" ||
			strings.HasPrefix(k, "faults.injected.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %d\n", k, vals[k])
	}
	fmt.Println("chaos: completed, data verified")
}
