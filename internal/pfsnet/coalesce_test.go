package pfsnet

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/logstore"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// These tests pin the client's runs (appendRuns): a server's
// consecutive sub-requests of one request that lie back to back in its
// object go as one frame, fragments go alone, and no run of several
// sub-requests exceeds maxRun.

// serverCounts sums the servers' answered writes, reads and fragment
// writes.
func serverCounts(dss []*DataServer) (writes, reads, frags []int64) {
	for _, ds := range dss {
		st := ds.Stats()
		writes = append(writes, st.Writes)
		reads = append(reads, st.Reads)
		frags = append(frags, st.FragmentWrites)
	}
	return writes, reads, frags
}

// TestAlignedRequestOneFramePerServer writes and reads 4 MiB aligned
// over four servers: each server's 16 units are one run, so each server
// answers exactly one write and one read.
func TestAlignedRequestOneFramePerServer(t *testing.T) {
	c, dss, _ := stripedCluster(t, 4, ServerConfig{}, nil)
	f, err := c.Create("aligned", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(4<<20, 11)
	if err := c.WriteAt(f, 4<<20, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadAt(f, 4<<20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs from the write")
	}
	writes, reads, _ := serverCounts(dss)
	for i := range dss {
		if writes[i] != 1 || reads[i] != 1 {
			t.Errorf("server %d answered %d writes and %d reads, want 1 and 1", i, writes[i], reads[i])
		}
	}
}

// TestUnalignedRunsKeepFragments writes a request that starts and ends
// mid-unit over several stripes with fragment flagging on: the servers
// log exactly the fragments the decomposer flags, and everything reads
// back.
func TestUnalignedRunsKeepFragments(t *testing.T) {
	const threshold = 20 << 10
	c, dss, _ := stripedCluster(t, 4, ServerConfig{Bridge: true}, func(c *Client) { c.FragmentThreshold = threshold })
	f, err := c.Create("unaligned", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	const off, length = 10 << 10, 1<<20 + 5<<10
	data := randBytes(length, 12)
	if err := c.WriteAt(f, off, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, length)
	if err := c.ReadAt(f, off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs from the write")
	}
	want := f.Layout().Fragments(off, length, threshold)
	if want == 0 {
		t.Fatal("the request has no fragments to keep")
	}
	writes, _, frags := serverCounts(dss)
	var sumW, sumF int64
	for i := range dss {
		sumW += writes[i]
		sumF += frags[i]
	}
	if sumF != int64(want) {
		t.Errorf("servers logged %d fragment writes, the decomposer flags %d", sumF, want)
	}
	// Each server's units go as one run, apart from the fragments.
	if sumW != int64(len(dss)+want) {
		t.Errorf("servers answered %d writes, want %d runs and %d fragments", sumW, len(dss), want)
	}
}

// TestCoalescedReadbackMatchesShadow drives random reads and writes
// over 1–5 servers and several units, with fragment and random-write
// flagging on, and checks every read against a shadow byte array.
func TestCoalescedReadbackMatchesShadow(t *testing.T) {
	rng := sim.NewRNG(50)
	for servers := 1; servers <= 5; servers++ {
		for _, unit := range []int64{1000, 4096, 64 << 10} {
			t.Run(fmt.Sprintf("servers=%d/unit=%d", servers, unit), func(t *testing.T) {
				meta := testCluster(t, servers, unit, true)
				c := NewIBridgeClient(meta, unit/3, unit/2)
				defer c.Close()
				size := 40 * unit * int64(servers)
				f, err := c.Create("shadow", size)
				if err != nil {
					t.Fatal(err)
				}
				shadow := make([]byte, size)
				for op := 0; op < 40; op++ {
					off := int64(rng.Uint64() % uint64(size))
					length := int64(rng.Uint64()%uint64(size-off)) + 1
					if op%2 == 0 {
						data := randBytes(int(length), rng.Uint64())
						if err := c.WriteAt(f, off, data); err != nil {
							t.Fatalf("WriteAt [%d,+%d): %v", off, length, err)
						}
						copy(shadow[off:], data)
						continue
					}
					got := make([]byte, length)
					if err := c.ReadAt(f, off, got); err != nil {
						t.Fatalf("ReadAt [%d,+%d): %v", off, length, err)
					}
					if !bytes.Equal(got, shadow[off:off+length]) {
						t.Fatalf("ReadAt [%d,+%d) differs from the shadow", off, length)
					}
				}
			})
		}
	}
}

// TestRunCapSplitsShare writes and reads 5 MiB over two servers of
// 64 KiB units: each server's 2.5 MiB share is ⌈2.5 MiB / maxRun⌉ = 3
// frames each way.
func TestRunCapSplitsShare(t *testing.T) {
	c, dss, _ := stripedCluster(t, 2, ServerConfig{}, nil)
	f, err := c.Create("capped", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(5<<20, 13)
	if err := c.WriteAt(f, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadAt(f, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs from the write")
	}
	share := int64(len(data) / len(dss))
	want := (share + maxRun - 1) / maxRun
	writes, reads, _ := serverCounts(dss)
	for i := range dss {
		if writes[i] != want || reads[i] != want {
			t.Errorf("server %d answered %d writes and %d reads, want %d each", i, writes[i], reads[i], want)
		}
	}
}

// TestLogBackedLargeWrite writes 64 MiB in one WriteAt over two data
// servers on log stores: each server's 32 MiB share goes as runs of at
// most maxRun, each one store record well within logstore.MaxRecordData.
func TestLogBackedLargeWrite(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ls, err := logstore.Open(t.TempDir(), logstore.Config{NoCompactor: true})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: ls})
		if err != nil {
			ls.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", 64<<10, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := NewClient(ms.Addr())
	defer c.Close()
	f, err := c.Create("large", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(64<<20, 14)
	if err := c.WriteAt(f, 0, data); err != nil {
		t.Fatalf("64 MiB WriteAt: %v", err)
	}
	got := make([]byte, 1<<20)
	for _, off := range []int64{0, 31<<20 + 12345, 63 << 20} {
		if err := c.ReadAt(f, off, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[off:off+int64(len(got))]) {
			t.Fatalf("read at %d differs from the write", off)
		}
	}
}

// TestFinishReadCopiesIntoPieces feeds finishRead a reply that came
// back in the connection's buffer: its data lands in the run's pieces in
// order, and the caller's bytes between the pieces stay untouched.
func TestFinishReadCopiesIntoPieces(t *testing.T) {
	p := bytes.Repeat([]byte{0xEE}, 30)
	r := &dataReq{run: []stripe.Sub{
		{ServerOff: 100, FileOff: 0, Length: 10},
		{ServerOff: 110, FileOff: 20, Length: 10},
	}, buf: p}
	data := bytes.Repeat([]byte{1}, 20)
	copy(data[10:], bytes.Repeat([]byte{2}, 10))
	var e enc
	e.bytes(data)
	if err := finishRead(e.b, 0, r); err != nil {
		t.Fatal(err)
	}
	want := slices.Concat(bytes.Repeat([]byte{1}, 10), bytes.Repeat([]byte{0xEE}, 10), bytes.Repeat([]byte{2}, 10))
	if !bytes.Equal(p, want) {
		t.Fatalf("pieces = %v, want %v", p, want)
	}
	e = enc{}
	e.bytes(data[:15])
	if err := finishRead(e.b, 0, r); err == nil {
		t.Fatal("a short reply filled a 20-byte run")
	}
}

// FuzzStripeRuns checks the run builder over random requests and
// layouts, grouped by server the way Client.do groups them: the runs
// partition each group in order; each run's pieces are the caller's
// bytes at their file offsets and fill its server range back to back;
// a fragment, or any sub-request of a random write, is a run of its
// own; no run of several sub-requests exceeds maxRun; and two
// neighbouring runs could not have been one.
func FuzzStripeRuns(f *testing.F) {
	f.Add(int64(0), int64(4<<20), uint8(4), int64(64<<10), int64(0), false)
	f.Add(int64(10<<10), int64(1<<20+5<<10), uint8(4), int64(64<<10), int64(20<<10), false)
	f.Add(int64(65<<10), int64(65<<10), uint8(8), int64(64<<10), int64(20<<10), false)
	f.Add(int64(3), int64(5000), uint8(2), int64(1000), int64(400), true)
	f.Add(int64(0), int64(3<<20), uint8(1), int64(96<<10), int64(0), false)
	f.Add(int64(12345), int64(5<<20), uint8(2), int64(96<<10), int64(0), false)
	f.Fuzz(func(t *testing.T, off, length int64, servers uint8, unit, threshold int64, random bool) {
		l := stripe.Layout{Unit: 1 + abs64(unit)%(2<<20), Servers: 1 + int(servers)%6}
		off = abs64(off) % (1 << 30)
		length = 1 + abs64(length)%min(8<<20, 4096*l.Unit) // at most ~4096 sub-requests
		var subs []stripe.Sub
		if threshold = abs64(threshold) % (l.Unit + 1); threshold > 0 {
			subs = l.DecomposeFlagged(off, length, threshold)
		} else {
			subs = l.Decompose(off, length)
		}
		slices.SortStableFunc(subs, func(a, b stripe.Sub) int { return a.Server - b.Server })
		p := make([]byte, length)
		var total int64
		for rest := subs; len(rest) > 0; {
			g := serverGroup(rest)
			rest = rest[len(g):]
			runs := appendRuns(nil, g, p, off, random)
			next := 0 // index in g of the next run's first sub-request
			for k := range runs {
				r := &runs[k]
				if len(r.run) == 0 || &r.run[0] != &g[next] {
					t.Fatalf("run %d does not start at sub-request %d of its group", k, next)
				}
				next += len(r.run)
				srvOff := r.run[0].ServerOff
				for i, s := range r.run {
					if s.ServerOff != srvOff {
						t.Fatalf("run %d piece %d at server offset %d, want %d", k, i, s.ServerOff, srvOff)
					}
					srvOff += s.Length
					piece := r.piece(i)
					if int64(len(piece)) != s.Length || &piece[0] != &p[s.FileOff-off] {
						t.Fatalf("run %d piece %d is not the caller's bytes [%d,+%d)", k, i, s.FileOff-off, s.Length)
					}
					if len(r.run) > 1 && (s.Fragment || random) {
						t.Fatalf("run %d merges a flagged sub-request %v", k, s)
					}
				}
				if srvOff-r.run[0].ServerOff != r.length() {
					t.Fatalf("run %d: pieces fill %d bytes, length says %d", k, srvOff-r.run[0].ServerOff, r.length())
				}
				if len(r.run) > 1 && r.length() > maxRun {
					t.Fatalf("run %d of %d sub-requests carries %d bytes, over the cap", k, len(r.run), r.length())
				}
				total += r.length()
				if k == 0 {
					continue
				}
				prev, s := runs[k-1], r.run[0]
				last := prev.run[len(prev.run)-1]
				if !random && !last.Fragment && !s.Fragment && last.ServerOff+last.Length == s.ServerOff &&
					prev.length()+s.Length <= maxRun {
					t.Fatalf("runs %d and %d could have been one", k-1, k)
				}
			}
			if next != len(g) {
				t.Fatalf("runs cover %d of the group's %d sub-requests", next, len(g))
			}
		}
		if total != length {
			t.Fatalf("runs carry %d bytes of a %d-byte request", total, length)
		}
	})
}

func abs64(v int64) int64 {
	if v < 0 {
		return -(v + 1)
	}
	return v
}
