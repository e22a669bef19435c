package pfsnet

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/logstore"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// These tests pin the frames the servers see for the client's runs
// (stripe.Layout.AppendRuns): a server's region of one request goes as
// one frame, fragments go alone, and no frame carries more than
// stripe.MaxRun bytes of data.

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
	want := 0
	for _, s := range f.Layout().DecomposeFlagged(off, length, threshold) {
		if s.Fragment {
			want++
		}
	}
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
// 64 KiB units: each server's 2.5 MiB share is ⌈2.5 MiB / MaxRun⌉ = 3
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
	want := (share + stripe.MaxRun - 1) / stripe.MaxRun
	writes, reads, _ := serverCounts(dss)
	for i := range dss {
		if writes[i] != want || reads[i] != want {
			t.Errorf("server %d answered %d writes and %d reads, want %d each", i, writes[i], reads[i], want)
		}
	}
}

// TestLogBackedLargeWrite writes 64 MiB in one WriteAt over two data
// servers on log stores: each server's 32 MiB share goes as runs of at
// most stripe.MaxRun, each one store record well within
// logstore.MaxRecordData.
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
	// Two 10-byte units of server 0 on a two-server file: back to back
	// in its object, a unit of server 1 apart in p.
	r := &dataReq{run: stripe.Sub{ServerOff: 100, FileOff: 0, Length: 20}, layout: stripe.Layout{Unit: 10, Servers: 2}, buf: p}
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

// largestCalls is an object store that records the longest write and
// the longest read its data server asks of it: one frame's data each.
type largestCalls struct {
	ObjectStore
	write, read atomic.Int64
}

func (s *largestCalls) WriteAt(file uint64, off int64, data []byte) error {
	raise(&s.write, int64(len(data)))
	return s.ObjectStore.WriteAt(file, off, data)
}

func (s *largestCalls) ReadAt(file uint64, off int64, p []byte) error {
	raise(&s.read, int64(len(p)))
	return s.ObjectStore.ReadAt(file, off, p)
}

func raise(v *atomic.Int64, n int64) {
	for {
		if old := v.Load(); n <= old || v.CompareAndSwap(old, n) {
			return
		}
	}
}

// TestRunBoundaries writes and reads back one request at each length
// around a size limit, at offset 0 over 1, 2 and 4 servers of 64 KiB
// units on mem and log stores: just under and over stripe.MaxRun and
// logstore.MaxRecordData, and 64 MiB, MaxMessage itself. Each server
// answers ⌈share/MaxRun⌉ writes and as many reads, and no store call,
// so no data frame, exceeds MaxRun, one server or many.
func TestRunBoundaries(t *testing.T) {
	lengths := []int64{stripe.MaxRun - 1, stripe.MaxRun + 1, logstore.MaxRecordData - 1, logstore.MaxRecordData + 1, 64 << 20}
	src := randBytes(1<<20, 15)
	data := make([]byte, 64<<20+len(lengths))
	for at := 0; at < len(data); at += len(src) {
		copy(data[at:], src)
	}
	got := make([]byte, 64<<20)
	for _, servers := range []int{1, 2, 4} {
		for _, kind := range []string{"mem", "log"} {
			t.Run(fmt.Sprintf("servers=%d/%s", servers, kind), func(t *testing.T) {
				var dss []*DataServer
				var stores []*largestCalls
				var addrs []string
				for range servers {
					var store ObjectStore = NewMemStore()
					if kind == "log" {
						ls, err := logstore.Open(t.TempDir(), logstore.Config{NoCompactor: true, CheckpointBytes: -1})
						if err != nil {
							t.Fatal(err)
						}
						store = ls
					}
					lc := &largestCalls{ObjectStore: store}
					ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: lc})
					if err != nil {
						store.Close()
						t.Fatal(err)
					}
					t.Cleanup(func() { ds.Close() })
					dss, stores, addrs = append(dss, ds), append(stores, lc), append(addrs, ds.Addr())
				}
				ms, err := NewMetaServer("127.0.0.1:0", 64<<10, addrs)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ms.Close() })
				c := NewClient(ms.Addr())
				defer c.Close()
				f, err := c.Create("bounds", 64<<20)
				if err != nil {
					t.Fatal(err)
				}
				for k, n := range lengths {
					w0, r0, _ := serverCounts(dss)
					want := data[k : int64(k)+n] // a different shift each time: no stale byte reads back right
					if err := c.WriteAt(f, 0, want); err != nil {
						t.Fatalf("%d-byte WriteAt: %v", n, err)
					}
					if err := c.ReadAt(f, 0, got[:n]); err != nil {
						t.Fatalf("%d-byte ReadAt: %v", n, err)
					}
					if !bytes.Equal(got[:n], want) {
						t.Fatalf("%d-byte read back differs from the write", n)
					}
					w1, r1, _ := serverCounts(dss)
					for i, share := range f.Layout().ServerBytes(n) {
						frames := (share + stripe.MaxRun - 1) / stripe.MaxRun
						if w1[i]-w0[i] != frames || r1[i]-r0[i] != frames {
							t.Errorf("%d bytes: server %d answered %d writes and %d reads of its %d-byte share, want %d each",
								n, i, w1[i]-w0[i], r1[i]-r0[i], share, frames)
						}
					}
				}
				for i, s := range stores {
					if w, r := s.write.Load(), s.read.Load(); w > stripe.MaxRun || r > stripe.MaxRun {
						t.Errorf("server %d stored a %d-byte write and read a %d-byte range, over MaxRun", i, w, r)
					}
				}
			})
		}
	}
}
