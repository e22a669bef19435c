package pfsnet

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/stripe"
)

// hedgeTestPattern fills p with a deterministic byte pattern.
func hedgeTestPattern(p []byte) {
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
}

// runHedgedStraggler is one run of the deterministic hedge-win
// scenario: a client-scoped latency plan makes every primary conn I/O
// op sleep, while the hedge conns (scope "client-hedge") stay fast, so
// a fixed HedgeDelay far below the injected latency makes every read
// hedge and every hedge win. Returns the hedge summary and the bytes
// read.
func runHedgedStraggler(t *testing.T, reads int) (HedgeStats, []byte) {
	t.Helper()
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	// Seed through an unplanned client so setup writes skip the latency.
	setup := NewClient(ms.Addr())
	payload := make([]byte, 32*1024)
	hedgeTestPattern(payload)
	f, err := setup.Create("straggle", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteAt(f, 0, payload); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	c := NewClient(ms.Addr())
	// A wide straggler margin: the hedge must win even when the race
	// detector or a loaded host stretches the hedge-conn dial+exchange.
	c.FaultPlan = faults.MustParse("seed=3; latency=client:150ms")
	c.Hedge = true
	c.HedgeDelay = 5 * time.Millisecond
	defer c.Close()
	f, err = c.Open("straggle")
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	got := make([]byte, 1024)
	for i := 0; i < reads; i++ {
		off := int64(i) * 1024 % int64(len(payload)-1024)
		if err := c.ReadAt(f, off, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload[off:off+1024]) {
			t.Fatalf("read %d: bytes differ from written data", i)
		}
		out = append(out, got...)
	}
	return c.HedgeStats(), out
}

// TestHedgeWinsDeterministic pins the tentpole's A-side: under a
// client-scoped straggler plan every read hedges, every hedge wins, and
// the loser is cancelled — and two runs of the same seed produce the
// identical summary and identical bytes.
func TestHedgeWinsDeterministic(t *testing.T) {
	const reads = 12
	st1, bytes1 := runHedgedStraggler(t, reads)
	want := HedgeStats{
		Armed: reads, Fired: reads, Won: reads,
		Wasted: 0, Suppressed: 0, CancelsSent: reads,
	}
	if st1 != want {
		t.Fatalf("hedge summary = %+v, want %+v", st1, want)
	}
	st2, bytes2 := runHedgedStraggler(t, reads)
	if st2 != st1 {
		t.Fatalf("two runs differ: %+v vs %+v", st1, st2)
	}
	if !bytes.Equal(bytes1, bytes2) {
		t.Fatal("two runs read different bytes")
	}
}

// TestHedgeP99Reduction is the acceptance A/B: under a skewed latency
// plan that delays one primary conn op in four, the hedged client's p99
// parent-read latency must come in at least 30% under the unhedged
// client's, with byte-identical results.
func TestHedgeP99Reduction(t *testing.T) {
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	payload := make([]byte, 64*1024)
	hedgeTestPattern(payload)
	setup := NewClient(ms.Addr())
	f, err := setup.Create("ab", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteAt(f, 0, payload); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const reads = 80
	run := func(hedge bool) (float64, []byte) {
		c := NewClient(ms.Addr())
		// Fresh plans with the same spec: both clients face the same
		// deterministic straggler schedule.
		c.FaultPlan = faults.MustParse("seed=9; latency=client:80ms@1/4")
		if hedge {
			c.Hedge = true
			c.HedgeDelay = 10 * time.Millisecond
		}
		defer c.Close()
		f, err := c.Open("ab")
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		lats := make([]float64, 0, reads)
		got := make([]byte, 1024)
		// Untimed warm-up: the first read pays the data-conn dial and
		// handshake, which the fault plan also delays and a hedge cannot
		// rescue (the hedge timer only covers the read exchange).
		if err := c.ReadAt(f, 0, got); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reads; i++ {
			off := int64(i) * 997 % int64(len(payload)-1024)
			t0 := time.Now()
			if err := c.ReadAt(f, off, got); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			lats = append(lats, float64(time.Since(t0))/1e6)
			if !bytes.Equal(got, payload[off:off+1024]) {
				t.Fatalf("read %d: bytes differ", i)
			}
			all = append(all, got...)
		}
		sort.Float64s(lats)
		t.Logf("hedge=%v stats=%+v", hedge, c.HedgeStats())
		return lats[reads*99/100], all
	}
	p99Plain, bytesPlain := run(false)
	p99Hedged, bytesHedged := run(true)
	if !bytes.Equal(bytesPlain, bytesHedged) {
		t.Fatal("hedged and unhedged clients read different bytes")
	}
	if p99Hedged > 0.7*p99Plain {
		t.Fatalf("hedged p99 = %.2fms, want <= 70%% of unhedged p99 %.2fms", p99Hedged, p99Plain)
	}
	t.Logf("p99: unhedged=%.2fms hedged=%.2fms (%.0f%% reduction)",
		p99Plain, p99Hedged, 100*(1-p99Hedged/p99Plain))
}

// TestHedgeCancelConsumed pins what opCancel does on a data server that
// executes each connection in arrival order: the request a cancel names
// has already run, so the cancel is consumed and counted in
// CancelsReceived, produces no reply, and leaves the connection serving.
func TestHedgeCancelConsumed(t *testing.T) {
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	cancel := func(target uint64) []byte {
		var e enc
		e.u64(target)
		return rawFrame(0, opCancel, e.b)
	}
	nc, br := dialV2(t, ds.Addr())
	tag := seedBlocks(t, nc, br, 5, 2)
	// Read, a cancel for it, a cancel for a tag never issued, then
	// another read: only the two reads are answered, in order.
	var burst []byte
	burst = append(burst, rawFrame(tag, opRead, readReq(5, 0, 512))...)
	burst = append(burst, cancel(tag)...)
	burst = append(burst, cancel(tag+100)...)
	burst = append(burst, rawFrame(tag+1, opRead, readReq(5, 512, 512))...)
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	checkBlock(t, expectReply(t, nc, br, 5*time.Second, tag), 0)
	checkBlock(t, expectReply(t, nc, br, 5*time.Second, tag+1), 1)
	if n := ds.Stats().CancelsReceived; n != 2 {
		t.Fatalf("CancelsReceived = %d, want 2", n)
	}
	// Still usable: a later request is answered and nothing else (no late
	// reply to a cancel) arrives first.
	if _, err := nc.Write(rawFrame(tag+2, opRead, readReq(5, 0, 512))); err != nil {
		t.Fatal(err)
	}
	checkBlock(t, expectReply(t, nc, br, 5*time.Second, tag+2), 0)
}

// TestHedgeInteropMatrix checks the opCancel/opReadDirect wire frames
// end to end: every straggling read of a hedging client is re-issued as
// opReadDirect, wins, and cancels its primary with opCancel.
func TestHedgeInteropMatrix(t *testing.T) {
	t.Run("v2-vectored", func(t *testing.T) {
		payload := make([]byte, 16*1024)
		hedgeTestPattern(payload)
		ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: NewMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		ms, err := NewMetaServer("127.0.0.1:0", 4096, []string{ds.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		setup := NewClient(ms.Addr())
		f, err := setup.Create("interop", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := setup.WriteAt(f, 0, payload); err != nil {
			t.Fatal(err)
		}
		setup.Close()

		c := NewClient(ms.Addr())
		c.FaultPlan = faults.MustParse("seed=5; latency=client:150ms")
		c.Hedge = true
		c.HedgeDelay = 5 * time.Millisecond
		defer c.Close()
		f, err = c.Open("interop")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1024)
		const reads = 3
		for i := 0; i < reads; i++ {
			off := int64(i) * 2048
			if err := c.ReadAt(f, off, got); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(got, payload[off:off+1024]) {
				t.Fatalf("read %d: bytes differ", i)
			}
		}
		st := c.HedgeStats()
		if st.Won != reads {
			t.Fatalf("hedge summary = %+v, want %d wins", st, reads)
		}
		if srv := ds.Stats(); st.CancelsSent != reads || srv.DirectReads != reads {
			t.Fatalf("cancels=%d directReads=%d, want %d/%d", st.CancelsSent, srv.DirectReads, reads, reads)
		}
	})
}

// TestHedgeDoubleReplyBufferSafety races primaries against hedges with
// an immediate hedge timer on a fast server, so both replies frequently
// arrive and the abandon arbitration runs both ways. Every read must
// return the right bytes and the pool must see zero foreign puts — the
// loser's buffer is released exactly once, never double-put, never
// leaked into a wrong size class.
func TestHedgeDoubleReplyBufferSafety(t *testing.T) {
	meta := testCluster(t, 2, 4096, false)
	payload := make([]byte, 16*1024)
	hedgeTestPattern(payload)
	setup := NewClient(meta)
	f, err := setup.Create("race", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteAt(f, 0, payload); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	c := NewClient(meta)
	c.Hedge = true
	c.HedgeDelay = time.Nanosecond // fires before the first wait: every read races
	c.HedgeBudget = -1
	defer c.Close()
	f, err = c.Open("race")
	if err != nil {
		t.Fatal(err)
	}
	base := PoolForeignPuts()
	got := make([]byte, 2048)
	for i := 0; i < 300; i++ {
		off := int64(i) * 512 % int64(len(payload)-2048)
		if err := c.ReadAt(f, off, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload[off:off+2048]) {
			t.Fatalf("read %d: bytes differ", i)
		}
	}
	if got := PoolForeignPuts() - base; got != 0 {
		t.Fatalf("hedged read path produced %d foreign puts, want 0", got)
	}
	st := c.HedgeStats()
	if st.Fired == 0 {
		t.Fatalf("immediate hedge timer never fired: %+v", st)
	}
}

// TestHedgeBudgetTokens pins the token-bucket semantics: a budget of n
// admits n concurrent hedges, fails open past it, and refills on
// release; a negative budget removes the cap.
func TestHedgeBudgetTokens(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	c.HedgeBudget = 2
	if !c.acquireHedge() || !c.acquireHedge() {
		t.Fatal("budget of 2 refused one of the first two hedges")
	}
	if c.acquireHedge() {
		t.Fatal("budget of 2 admitted a third concurrent hedge")
	}
	c.releaseHedge()
	if !c.acquireHedge() {
		t.Fatal("released token not reusable")
	}

	u := NewClient("127.0.0.1:1")
	u.HedgeBudget = -1
	for i := 0; i < 100; i++ {
		if !u.acquireHedge() {
			t.Fatal("uncapped budget refused a hedge")
		}
	}
}

// TestHedgeBudgetSuppression drives the fail-open path end to end: with
// a budget of 1 and many concurrent straggling reads, some hedges must
// be suppressed — and every suppressed read still completes correctly
// off its primary.
func TestHedgeBudgetSuppression(t *testing.T) {
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	payload := make([]byte, 32*1024)
	hedgeTestPattern(payload)
	setup := NewClient(ms.Addr())
	f, err := setup.Create("budget", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteAt(f, 0, payload); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	c := NewClient(ms.Addr())
	c.FaultPlan = faults.MustParse("seed=4; latency=client:50ms")
	c.Hedge = true
	c.HedgeDelay = 2 * time.Millisecond
	c.HedgeBudget = 1
	defer c.Close()
	f, err = c.Open("budget")
	if err != nil {
		t.Fatal(err)
	}
	const readers = 6
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		i := i
		go func() {
			got := make([]byte, 1024)
			off := int64(i) * 4096
			if err := c.ReadAt(f, off, got); err != nil {
				errs <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, payload[off:off+1024]) {
				errs <- fmt.Errorf("read %d: bytes differ", i)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := c.HedgeStats()
	if st.Suppressed == 0 {
		t.Fatalf("budget of 1 under %d concurrent stragglers suppressed nothing: %+v", readers, st)
	}
	if st.Fired == 0 {
		t.Fatalf("no hedge fired at all: %+v", st)
	}
}

// TestLoadHintBroadcast checks satellite (a): the metadata server's T_i
// vector rides Create/Open replies as trailing bytes, lands in the
// client's hint table keyed by server address, and rejects a
// wrong-length vector.
func TestLoadHintBroadcast(t *testing.T) {
	meta := testCluster(t, 3, 4096, false)
	setup := NewClient(meta)
	if _, err := setup.Create("hints", 1<<20); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	// Reach the MetaServer through a fresh server set: testCluster hides
	// the handle, so build an explicit cluster instead.
	var addrs []string
	for i := 0; i < 3; i++ {
		ds, err := NewDataServer("127.0.0.1:0", false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", 4096, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	if err := ms.SetLoadHints([]float64{1.5, 0.5, 8}); err != nil {
		t.Fatal(err)
	}
	if err := ms.SetLoadHints([]float64{1, 2}); err == nil {
		t.Fatal("wrong-length hint vector accepted")
	}

	c := NewClient(ms.Addr())
	defer c.Close()
	if _, err := c.Create("hints", 1<<20); err != nil {
		t.Fatal(err)
	}
	got := c.LoadHints()
	want := map[string]float64{addrs[0]: 1.5, addrs[1]: 0.5, addrs[2]: 8}
	if len(got) != len(want) {
		t.Fatalf("LoadHints = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("LoadHints[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// TestOrderGroupsSlowestFirst checks the issue-ordering half of the
// tentpole: with load hints installed, the predicted-slowest server
// group (hint × queued bytes) is submitted first, ties and equal costs
// keep their original order, and a client with neither hedging nor
// hints leaves the order untouched.
func TestOrderGroupsSlowestFirst(t *testing.T) {
	f := &File{servers: []string{"a:1", "b:1", "c:1"}}
	mk := func() [][]stripe.Sub {
		return [][]stripe.Sub{
			{{Server: 0, Length: 100}},
			{{Server: 1, Length: 100}},
			{{Server: 2, Length: 100}},
		}
	}

	c := NewClient("127.0.0.1:1")
	c.Hedge = true
	c.SetLoadHints(map[string]float64{"a:1": 1, "b:1": 9, "c:1": 3})
	groups := mk()
	c.orderGroups(f, groups, "read")
	order := []int{groups[0][0].Server, groups[1][0].Server, groups[2][0].Server}
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("issue order = %v, want slowest-first [1 2 3]→[b c a]", order)
	}

	// Byte volume scales the prediction: a big group on a fast server
	// outranks a small one on a slow server.
	c2 := NewClient("127.0.0.1:1")
	c2.Hedge = true
	c2.SetLoadHints(map[string]float64{"a:1": 1, "b:1": 2, "c:1": 1})
	groups = [][]stripe.Sub{
		{{Server: 0, Length: 10}},
		{{Server: 1, Length: 10}},   // cost 20
		{{Server: 2, Length: 1000}}, // cost 1000: slowest overall
	}
	c2.orderGroups(f, groups, "read")
	if groups[0][0].Server != 2 || groups[1][0].Server != 1 {
		t.Fatalf("volume-weighted order = [%d %d %d], want c first then b",
			groups[0][0].Server, groups[1][0].Server, groups[2][0].Server)
	}

	// Neither hedging nor hints: a strict no-op.
	plain := NewClient("127.0.0.1:1")
	groups = mk()
	plain.orderGroups(f, groups, "read")
	for i, g := range groups {
		if g[0].Server != i {
			t.Fatalf("unarmed orderGroups reordered groups: %v", groups)
		}
	}
}

// TestHedgeZeroCostWhenDisabled pins the disabled path: with Hedge off
// the read path must stay within the PR 7 alloc budget (the hedging
// machinery adds only dormant branch tests), create no hedge
// connections, and count nothing.
func TestHedgeZeroCostWhenDisabled(t *testing.T) {
	meta := testCluster(t, 1, 64*1024, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("off", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := c.WriteAt(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := c.ReadAt(f, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	readAllocs := testing.AllocsPerRun(200, func() {
		if err := c.ReadAt(f, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
	// Same ceiling TestV2HotPathAllocs enforced before hedging existed.
	if readAllocs > 20 {
		t.Errorf("unhedged read path: %.1f allocs/op, want <= 20 (PR 7 parity)", readAllocs)
	}
	if st := c.HedgeStats(); st != (HedgeStats{}) {
		t.Fatalf("disabled hedging counted something: %+v", st)
	}
	c.mu.Lock()
	nh := len(c.hdata)
	c.mu.Unlock()
	if nh != 0 {
		t.Fatalf("disabled hedging opened %d hedge connections", nh)
	}
}
