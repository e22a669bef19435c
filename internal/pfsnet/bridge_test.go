package pfsnet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// The bridge tests drive a data server's handlers directly — the same
// entry points the wire dispatch calls — so every step is synchronous
// and a failure names the step, not a connection.

func newBridgeServer(t testing.TB, cfg ServerConfig) *DataServer {
	t.Helper()
	cfg.Bridge = true
	s, err := NewDataServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func srvWrite(t testing.TB, s *DataServer, file uint64, off int64, data []byte, flagged bool) {
	t.Helper()
	var e enc
	e.u64(file)
	e.i64(off)
	if flagged {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.bytes(data)
	if err := s.handleWrite(e.b); err != nil {
		t.Errorf("write file %d [%d,+%d) flagged=%v: %v", file, off, len(data), flagged, err)
	}
}

func srvRead(t testing.TB, s *DataServer, file uint64, off, n int64) []byte {
	t.Helper()
	var e enc
	e.u64(file)
	e.i64(off)
	e.i64(n)
	reply, err := s.handleRead(newVecWriter(io.Discard, nil), e.b)
	if err != nil {
		t.Errorf("read file %d [%d,+%d): %v", file, off, n, err)
		return make([]byte, n)
	}
	return reply[4:]
}

func srvFlush(t testing.TB, s *DataServer, file uint64) int64 {
	t.Helper()
	var e enc
	e.u64(file)
	reply, err := s.handleFlush(e.b)
	if err != nil {
		t.Errorf("flush %d: %v", file, err)
		return 0
	}
	d := dec{b: reply}
	return d.i64()
}

// mappedExtents returns the number of extents the bridge maps for file.
func mappedExtents(b *bridge, file uint64) int {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if l := b.files[file]; l != nil {
		return len(*l)
	}
	return 0
}

// checkBridgeAccounting asserts that the bridge's counters agree with
// its index and chunk set, and that both respect the extent invariants.
func checkBridgeAccounting(t *testing.T, b *bridge) {
	t.Helper()
	b.logMu.Lock()
	defer b.logMu.Unlock()
	var live, extents int64
	perChunk := map[uint64]int64{}
	for file, l := range b.files {
		if len(*l) == 0 {
			t.Fatalf("file %d keeps an empty index", file)
		}
		var prevEnd int64
		for _, e := range *l {
			if e.N <= 0 || e.Off < prevEnd {
				t.Fatalf("file %d: extent %+v after end %d", file, e, prevEnd)
			}
			prevEnd = e.Off + e.N
			c := b.chunks[e.Seg]
			if c == nil || e.Pos+e.N > int64(len(c.buf)) {
				t.Fatalf("file %d: extent %+v points outside the log", file, e)
			}
			perChunk[e.Seg] += e.N
			live += e.N
		}
		extents += int64(len(*l))
	}
	var held int64
	for seq, c := range b.chunks {
		if c.live != perChunk[seq] {
			t.Fatalf("chunk %d counts %d live bytes, the index maps %d", seq, c.live, perChunk[seq])
		}
		if c.live == 0 && c.sealed {
			t.Fatalf("chunk %d is sealed, dead and still held", seq)
		}
		held += int64(len(c.buf))
	}
	if got := b.liveBytes.Load(); got != live {
		t.Fatalf("liveBytes %d, index maps %d", got, live)
	}
	if got := b.heldBytes.Load(); got != held {
		t.Fatalf("heldBytes %d, chunks hold %d", got, held)
	}
	if got := b.extents.Load(); got != extents {
		t.Fatalf("extents %d, index has %d", got, extents)
	}
}

// TestBridgeMatchesByteArrayModel runs a seeded random mix of flagged
// writes, direct writes placed against existing extents (inside, over
// the head, over the tail, spanning), reads, per-file and full flushes
// and one SSD failure against a byte-array reference. Every step checks
// the accounting and reads back what it touched (a write with its
// neighbourhood; a flush, the store's copy of the file); every 50th
// reads back every file whole.
func TestBridgeMatchesByteArrayModel(t *testing.T) {
	const (
		files    = 3
		fileSize = 3 << 19 // 1.5 MiB: room for a payload larger than a chunk
		steps    = 1500
	)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := newBridgeServer(t, ServerConfig{})
			ref := make([][]byte, files+1)
			for f := 1; f <= files; f++ {
				ref[f] = make([]byte, fileSize)
			}
			// Payloads are windows of one random pool: random enough that a
			// misplaced byte shows, without generating megabytes per step.
			pool := make([]byte, 2*chunkBytes)
			rng.Read(pool)
			verify := func(step int, file uint64, off, n int64) {
				off = max(off, 0)
				n = min(n, fileSize-off)
				if got := srvRead(t, s, file, off, n); !bytes.Equal(got, ref[file][off:off+n]) {
					t.Fatalf("step %d: file %d [%d,+%d) differs from the model", step, file, off, n)
				}
			}
			write := func(step int, file uint64, off, n int64, flagged bool) {
				off = max(off, 0)
				n = min(n, fileSize-off)
				at := rng.Int63n(int64(len(pool)) - n)
				p := pool[at : at+n]
				srvWrite(t, s, file, off, p, flagged)
				copy(ref[file][off:], p)
				// The neighbourhood too: a trim or split gone wrong
				// damages the bytes next to the write, not the write.
				verify(step, file, off-64<<10, n+128<<10)
			}
			failAt := steps * 4 / 5
			for step := 0; step < steps; step++ {
				file := uint64(1 + rng.Intn(files))
				switch op := rng.Intn(100); {
				case step == failAt:
					if err := s.FailSSD(); err != nil {
						t.Fatal(err)
					}
					if st := s.Stats(); !s.SSDFailed() || st.BridgeExtents != 0 || st.BridgeHeldBytes != 0 {
						t.Fatalf("after FailSSD: failed=%v stats %+v", s.SSDFailed(), st)
					}
				case op < 45:
					// A flagged write: 0 to 64 KB (so chunks fill and roll
					// between flushes), now and then bigger than a chunk.
					n := rng.Int63n(64 << 10)
					if rng.Intn(200) == 0 {
						n = chunkBytes + rng.Int63n(64<<10)
					}
					write(step, file, rng.Int63n(fileSize-n), n, true)
				case op < 70:
					// A direct write aimed at a mapped extent.
					off, n := rng.Int63n(fileSize), rng.Int63n(40<<10)
					s.bridge.logMu.Lock()
					if l := s.bridge.files[file]; l != nil {
						e := (*l)[rng.Intn(len(*l))]
						k := 1 + rng.Int63n(4<<10)
						switch rng.Intn(4) {
						case 0: // inside
							off, n = e.Off+e.N/4, e.N/2
						case 1: // over the head
							off, n = e.Off-k, k+e.N/2
						case 2: // over the tail
							off, n = e.Off+e.N/2, e.N-e.N/2+k
						case 3: // spanning
							off, n = e.Off-k, e.N+2*k
						}
					}
					s.bridge.logMu.Unlock()
					write(step, file, off, n, false)
				case op < 90:
					verify(step, file, rng.Int63n(fileSize), rng.Int63n(128<<10+1))
				case op < 94:
					others := map[uint64]int{}
					for f := uint64(1); f <= files; f++ {
						others[f] = mappedExtents(s.bridge, f)
					}
					srvFlush(t, s, file)
					for f := uint64(1); f <= files; f++ {
						mapped := mappedExtents(s.bridge, f)
						if want := others[f]; (f == file && mapped != 0) || (f != file && mapped != want) {
							t.Fatalf("step %d: flush of file %d left file %d with %d extents (had %d)", step, file, f, mapped, want)
						}
					}
					got := make([]byte, fileSize)
					if err := s.store.ReadAt(file, 0, got); err != nil || !bytes.Equal(got, ref[file]) {
						t.Fatalf("step %d: store copy of file %d differs after its flush (err %v)", step, file, err)
					}
				case op < 99:
					verify(step, file, 0, fileSize)
				default:
					srvFlush(t, s, 0)
					if st := s.Stats(); st.BridgeExtents != 0 || st.BridgeLiveBytes != 0 || st.BridgeHeldBytes != 0 {
						t.Fatalf("step %d: full flush left %+v", step, st)
					}
				}
				checkBridgeAccounting(t, s.bridge)
				if step%50 == 0 || step == steps-1 {
					for f := uint64(1); f <= files; f++ {
						verify(step, f, 0, fileSize)
					}
				}
			}
			if st := s.Stats(); st.FragmentWrites == 0 || st.FragmentReads == 0 || st.FlushedBytes == 0 {
				t.Fatalf("the run did not exercise the bridge: %+v", st)
			}
		})
	}
}

// TestBridgeConcurrentWritersAndFlushes is the model test's concurrent
// variant (it earns its keep under -race): 8 writers own disjoint slots
// of two files and mix flagged and direct writes while another
// goroutine keeps flushing; every writer reads its own slot back after
// each write, and at the end the server and — after a last flush — the
// store hold exactly what was written last.
func TestBridgeConcurrentWritersAndFlushes(t *testing.T) {
	const (
		writers = 8
		slot    = 48 << 10
		rounds  = 150
	)
	s := newBridgeServer(t, ServerConfig{})
	ref := make([][]byte, writers)
	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srvFlush(t, s, uint64(i%3)) // 0 = every file
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			file, base := uint64(1+w%2), int64(w)*slot
			mine := make([]byte, slot)
			for i := 0; i < rounds; i++ {
				off := rng.Int63n(slot)
				p := make([]byte, rng.Int63n(min(slot-off, 12<<10)+1))
				rng.Read(p)
				srvWrite(t, s, file, base+off, p, rng.Intn(3) != 0)
				copy(mine[off:], p)
				if got := srvRead(t, s, file, base, slot); !bytes.Equal(got, mine) {
					t.Errorf("writer %d round %d: slot differs from what it wrote", w, i)
					return
				}
			}
			ref[w] = mine
		}()
	}
	wg.Wait()
	close(stop)
	flusher.Wait()
	if t.Failed() {
		return
	}
	checkBridgeAccounting(t, s.bridge)
	if err := s.FlushLog(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		got := make([]byte, slot)
		if err := s.store.ReadAt(uint64(1+w%2), int64(w)*slot, got); err != nil || !bytes.Equal(got, ref[w]) {
			t.Fatalf("writer %d: store differs after the last flush (err %v)", w, err)
		}
	}
	if st := s.Stats(); st.BridgeExtents != 0 || st.BridgeHeldBytes != 0 {
		t.Fatalf("the last flush left %+v", st)
	}
}

// parkStore wraps a store so a test can hold one ReadAt or WriteAt at a
// known point. An armed call signals entered and then waits for release.
type parkStore struct {
	ObjectStore
	parkRead, parkWrite chan struct{} // non-nil = armed; taken by the first call
	mu                  sync.Mutex
	entered, release    chan struct{}
}

func newParkStore() *parkStore {
	return &parkStore{ObjectStore: NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkStore) take(armed *chan struct{}) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ok := *armed != nil
	*armed = nil
	return ok
}

// ReadAt reads the object first and parks afterwards: the caller holds
// bytes as old as the store was on entry while the test changes the
// world around it.
func (p *parkStore) ReadAt(file uint64, off int64, buf []byte) error {
	err := p.ObjectStore.ReadAt(file, off, buf)
	if p.take(&p.parkRead) {
		p.entered <- struct{}{}
		<-p.release
	}
	return err
}

// WriteAt parks before writing: the bytes are in flight, not landed.
func (p *parkStore) WriteAt(file uint64, off int64, data []byte) error {
	if p.take(&p.parkWrite) {
		p.entered <- struct{}{}
		<-p.release
	}
	return p.ObjectStore.WriteAt(file, off, data)
}

// TestReadAcrossDrainSeesAcknowledgedFragment: a read that starts after
// fragment F was acknowledged, and whose store read overlaps a full
// flush of F, must return F. (Reading the store first and overlaying
// the index afterwards returns the bytes from before F: the drain
// unmapped it in between.)
func TestReadAcrossDrainSeesAcknowledgedFragment(t *testing.T) {
	ps := newParkStore()
	s := newBridgeServer(t, ServerConfig{Store: ps})
	old := bytes.Repeat([]byte{0xAA}, 8192)
	frag := bytes.Repeat([]byte{0xF1}, 4096)
	srvWrite(t, s, 1, 0, old, false)
	srvWrite(t, s, 1, 1024, frag, true) // F, acknowledged

	ps.parkRead = make(chan struct{})
	got := make(chan []byte)
	go func() { got <- srvRead(t, s, 1, 0, 8192) }()
	<-ps.entered // the read has the store's pre-F bytes in hand
	if n := srvFlush(t, s, 0); n != int64(len(frag)) {
		t.Fatalf("flush wrote %d bytes, want %d", n, len(frag))
	}
	if st := s.Stats(); st.BridgeExtents != 0 {
		t.Fatalf("flush left %d extents", st.BridgeExtents)
	}
	ps.release <- struct{}{}

	want := bytes.Clone(old)
	copy(want[1024:], frag)
	if !bytes.Equal(<-got, want) {
		t.Fatal("a read begun after the fragment was acknowledged returned the bytes from before it")
	}
}

// TestDirectWriteBeatsWriteBackInFlight: a direct write issued while a
// drain's write-back of the same range is parked inside the store must
// end up on top — it waits for the write-back instead of racing it.
func TestDirectWriteBeatsWriteBackInFlight(t *testing.T) {
	ps := newParkStore()
	s := newBridgeServer(t, ServerConfig{Store: ps})
	frag := bytes.Repeat([]byte{0xF1}, 4096)
	direct := bytes.Repeat([]byte{0xD2}, 2048)
	srvWrite(t, s, 1, 0, frag, true)

	ps.parkWrite = make(chan struct{})
	flushed := make(chan int64)
	go func() { flushed <- srvFlush(t, s, 1) }()
	<-ps.entered // the write-back of the fragment is in the store's hands

	wrote := make(chan struct{})
	go func() {
		srvWrite(t, s, 1, 1024, direct, false)
		close(wrote)
	}()
	// A write outside the range in flight does not wait.
	srvWrite(t, s, 1, 1<<20, direct, false)
	select {
	case <-wrote:
		t.Error("the direct write finished while the write-back of its range was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	ps.release <- struct{}{}
	<-flushed
	<-wrote

	want := bytes.Clone(frag)
	copy(want[1024:], direct)
	if got := srvRead(t, s, 1, 0, 4096); !bytes.Equal(got, want) {
		t.Fatal("the stale write-back landed over a newer acknowledged direct write")
	}
	got := make([]byte, 4096)
	if err := ps.ObjectStore.ReadAt(1, 0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("store holds the wrong bytes (err %v)", err)
	}
}

// TestFragmentOverWriteBackInFlightStaysMapped: a flagged write that
// lands on a victim while its write-back is parked must stay mapped
// after the drain — the drain unmaps only what still points at the
// bytes it wrote.
func TestFragmentOverWriteBackInFlightStaysMapped(t *testing.T) {
	ps := newParkStore()
	s := newBridgeServer(t, ServerConfig{Store: ps})
	srvWrite(t, s, 1, 0, bytes.Repeat([]byte{0xF1}, 4096), true)

	ps.parkWrite = make(chan struct{})
	flushed := make(chan int64)
	go func() { flushed <- srvFlush(t, s, 0) }()
	<-ps.entered
	newer := bytes.Repeat([]byte{0xF2}, 1024)
	srvWrite(t, s, 1, 512, newer, true) // does not wait: it goes to the log
	ps.release <- struct{}{}
	if n := <-flushed; n != 4096 {
		t.Fatalf("flush wrote %d bytes, want 4096", n)
	}
	if st := s.Stats(); st.BridgeExtents != 1 || st.BridgeLiveBytes != 1024 {
		t.Fatalf("after the drain: %+v, want the newer fragment still mapped", st)
	}
	want := bytes.Repeat([]byte{0xF1}, 4096)
	copy(want[512:], newer)
	if got := srvRead(t, s, 1, 0, 4096); !bytes.Equal(got, want) {
		t.Fatal("read does not see the newer fragment over the written-back one")
	}
}

// countStore counts the store's WriteAt calls.
type countStore struct {
	ObjectStore
	mu     sync.Mutex
	writes int
}

func (c *countStore) WriteAt(file uint64, off int64, data []byte) error {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.ObjectStore.WriteAt(file, off, data)
}

// TestFragmentPathMakesNoStoreCallsUntilFlush pins what the bridge is
// for: flagged writes — overlapping ones and an empty one included —
// reach the store only at a flush, once per surviving extent.
func TestFragmentPathMakesNoStoreCallsUntilFlush(t *testing.T) {
	cs := &countStore{ObjectStore: NewMemStore()}
	s := newBridgeServer(t, ServerConfig{Store: cs})
	srvWrite(t, s, 1, 0, make([]byte, 4096), true)
	srvWrite(t, s, 1, 2048, make([]byte, 4096), true) // overlaps the first: trimmed in the index
	srvWrite(t, s, 1, 9000, nil, true)                // empty: maps nothing
	if st := s.Stats(); st.BridgeExtents != 2 || st.BridgeLiveBytes != 6144 || st.FragmentWrites != 3 {
		t.Fatalf("stats %+v", st)
	}
	if cs.writes != 0 {
		t.Fatalf("%d store writes before any flush", cs.writes)
	}
	if n := srvFlush(t, s, 1); n != 6144 || cs.writes != 2 {
		t.Fatalf("flush wrote %d bytes in %d store calls, want 6144 in 2", n, cs.writes)
	}
}

// TestBridgeHeapFollowsLiveBytes rewrites a fixed fragment working set
// for 10× its size: the chunks the log holds must stay within a
// constant factor of the live bytes rather than grow with the bytes
// appended (a single growing slice held all 10×).
func TestBridgeHeapFollowsLiveBytes(t *testing.T) {
	const (
		frags    = 1024
		fragSize = 8 << 10 // 8 MiB working set, 8 chunks
		passes   = 10
	)
	for _, tc := range []struct {
		name   string
		random bool
		factor int64 // held ≤ factor × live + the open chunk
	}{
		// In file order every chunk dies in one pass of the next round.
		{"sequential", false, 2},
		// Uniformly at random a chunk of 128 fragments survives until
		// the last of them is rewritten, about ln(128) ≈ 5 passes.
		{"random", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			s := newBridgeServer(t, ServerConfig{})
			p := make([]byte, fragSize)
			var peak int64
			for i := 0; i < passes*frags; i++ {
				k := int64(i % frags)
				if tc.random {
					k = rng.Int63n(frags)
				}
				srvWrite(t, s, 1, k*2*fragSize, p, true)
				st := s.Stats()
				peak = max(peak, st.BridgeHeldBytes)
				if st.BridgeHeldBytes > tc.factor*st.BridgeLiveBytes+chunkBytes {
					t.Fatalf("write %d: log holds %d bytes for %d live", i, st.BridgeHeldBytes, st.BridgeLiveBytes)
				}
			}
			st := s.Stats()
			t.Logf("appended %d MiB, live %d MiB, held at most %d MiB", st.LogBytes>>20, st.BridgeLiveBytes>>20, peak>>20)
			checkBridgeAccounting(t, s.bridge)
		})
	}
}

// TestBridgeGauges: the three gauges are in the registry a server is
// given and follow the log; a server without a registry (every other
// test here) runs the same code with nothing registered.
func TestBridgeGauges(t *testing.T) {
	reg := obs.NewRegistry()
	s := newBridgeServer(t, ServerConfig{Obs: reg})
	gauges := func() [3]float64 {
		snap := reg.Snapshot()
		var g [3]float64
		for i, name := range []string{"live_bytes", "held_bytes", "extents"} {
			v, ok := snap["pfsnet.server.bridge."+name].(float64)
			if !ok {
				t.Fatalf("pfsnet.server.bridge.%s is not registered", name)
			}
			g[i] = v
		}
		return g
	}
	srvWrite(t, s, 1, 0, make([]byte, 4096), true)
	srvWrite(t, s, 1, 0, make([]byte, 4096), true) // supersedes the first
	if g := gauges(); g != [3]float64{4096, 8192, 1} {
		t.Fatalf("gauges after two writes = %v", g)
	}
	srvFlush(t, s, 0)
	if g := gauges(); g != [3]float64{} {
		t.Fatalf("gauges after a full flush = %v", g)
	}
}

// BenchmarkBridgeOverlay measures one read's index lookup. The cost
// must not depend on how many extents are mapped.
func BenchmarkBridgeOverlay(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			br := newBridge(true)
			p := make([]byte, 4096)
			for i := 0; i < n; i++ {
				br.write(1, int64(i)*65536, p)
			}
			var few [4]patch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(br.overlay(1, int64(i%n)*65536, 65536, few[:0])) != 1 {
					b.Fatal("overlay missed the fragment")
				}
			}
		})
	}
}
