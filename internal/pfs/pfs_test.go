package pfs

import (
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// testFS builds a stock file system over nServers disk stores and
// returns it with the underlying disks.
func testFS(t *testing.T, e *sim.Engine, nServers int) (*FileSystem, []*hdd.Disk) {
	t.Helper()
	rng := sim.NewRNG(99)
	disks := make([]*hdd.Disk, nServers)
	stores := make([]Store, nServers)
	for i := range stores {
		disks[i] = hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = NewQueueStore(iosched.New(e, disks[i], iosched.DiskDefaults(), nil))
	}
	fs, err := NewFileSystem(e, Config{
		Layout: stripe.Layout{Unit: 64 * 1024, Servers: nServers},
	}, stores)
	if err != nil {
		t.Fatalf("NewFileSystem: %v", err)
	}
	return fs, disks
}

// run executes fn as a simulated process and halts the engine when it
// returns.
func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Go("test-main", func(p *sim.Proc) {
		fn(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// call issues op over [off, off+n) of f on c from p, the way a process
// issues a request (Proc.Call of Client.Start), and returns its service
// time.
func call(p *sim.Proc, c *Client, f *File, op device.Op, off, n int64) sim.Duration {
	start := p.Now()
	p.Call(func(done func()) { c.Start(f, op, off, n, done) })
	return p.Now().Sub(start)
}

func TestCreateAndOpen(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e, 4)
	f, err := fs.Create("data", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := fs.Open("data")
	if err != nil || got != f {
		t.Fatalf("Open: %v, %v", got, err)
	}
	if _, err := fs.Create("data", 1<<20); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if _, err := fs.Create("empty", 0); err == nil {
		t.Fatal("zero-size create accepted")
	}
	run(t, e, func(p *sim.Proc) {})
}

func TestAlignedRequestSingleServer(t *testing.T) {
	e := sim.New()
	fs, disks := testFS(t, e, 4)
	f, _ := fs.Create("data", 10<<20)
	c := NewClient(fs)
	run(t, e, func(p *sim.Proc) {
		call(p, c, f, device.Read, 0, 64*1024)
	})
	// Only server 0 should have seen I/O.
	if disks[0].Stats().TotalOps() == 0 {
		t.Fatal("server 0 idle")
	}
	for i := 1; i < 4; i++ {
		if disks[i].Stats().TotalOps() != 0 {
			t.Fatalf("server %d served %d ops for an aligned single-unit request", i, disks[i].Stats().TotalOps())
		}
	}
	if fs.Stats().SubCount != 1 {
		t.Fatalf("SubCount = %d, want 1", fs.Stats().SubCount)
	}
}

func TestUnalignedRequestTwoServers(t *testing.T) {
	e := sim.New()
	fs, disks := testFS(t, e, 4)
	f, _ := fs.Create("data", 10<<20)
	c := NewClient(fs)
	run(t, e, func(p *sim.Proc) {
		call(p, c, f, device.Read, 0, 65*1024)
	})
	if disks[0].Stats().TotalOps() == 0 || disks[1].Stats().TotalOps() == 0 {
		t.Fatal("65KB request did not touch servers 0 and 1")
	}
	if fs.Stats().SubCount != 2 {
		t.Fatalf("SubCount = %d, want 2", fs.Stats().SubCount)
	}
}

// countStore counts the requests a server is handed, and their bytes.
type countStore struct {
	Store
	requests, bytes int64
}

func (s *countStore) Start(r *IORequest, done func()) {
	s.requests++
	s.bytes += r.Bytes
	s.Store.Start(r, done)
}

// TestAlignedTwoStripesOneRequestPerServer: an aligned request of two
// stripes on four servers reaches each server as one request for its
// two units, which lie back to back in its object, from either client:
// 4 requests where the decomposition has 8 units.
func TestAlignedTwoStripesOneRequestPerServer(t *testing.T) {
	e := sim.New()
	rng := sim.NewRNG(99)
	counts := make([]*countStore, 4)
	stores := make([]Store, len(counts))
	for i := range counts {
		d := hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		counts[i] = &countStore{Store: NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil))}
		stores[i] = counts[i]
	}
	layout := stripe.Layout{Unit: 64 * 1024, Servers: len(stores)}
	fs, err := NewFileSystem(e, Config{Layout: layout}, stores)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("data", 10<<20)
	const off, length = 1 << 20, 8 * 64 * 1024
	if n := len(layout.Decompose(off, length)); n != 8 {
		t.Fatalf("the request has %d units, want 8", n)
	}
	run(t, e, func(p *sim.Proc) {
		for _, c := range []*Client{NewClient(fs), NewIBridgeClient(fs, 20*1024, 20*1024)} {
			for _, s := range counts {
				s.requests, s.bytes = 0, 0
			}
			call(p, c, f, device.Write, off, length)
			for i, s := range counts {
				if s.requests != 1 || s.bytes != length/4 {
					t.Errorf("server %d served %d requests of %d bytes, want 1 of %d", i, s.requests, s.bytes, length/4)
				}
			}
		}
	})
	if st := fs.Stats(); st.SubCount != 8 || st.Fragments != 0 {
		t.Fatalf("SubCount = %d, Fragments = %d over two requests, want 8 and 0", st.SubCount, st.Fragments)
	}
}

func TestFragmentFlaggingOnlyWithIBridgeClient(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e, 4)
	f, _ := fs.Create("data", 10<<20)
	stock := NewClient(fs)
	ib := NewIBridgeClient(fs, 20*1024, 20*1024)
	run(t, e, func(p *sim.Proc) {
		call(p, stock, f, device.Read, 0, 65*1024)
		if fs.Stats().Fragments != 0 {
			t.Errorf("stock client flagged %d fragments", fs.Stats().Fragments)
		}
		call(p, ib, f, device.Read, 0, 65*1024)
		if fs.Stats().Fragments != 1 {
			t.Errorf("iBridge client flagged %d fragments, want 1", fs.Stats().Fragments)
		}
	})
}

func TestRequestServiceTimeAccounting(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e, 2)
	f, _ := fs.Create("data", 10<<20)
	c := NewClient(fs)
	var lat sim.Duration
	run(t, e, func(p *sim.Proc) {
		lat = call(p, c, f, device.Write, 0, 128*1024)
	})
	if lat <= 0 {
		t.Fatal("no latency")
	}
	st := fs.Stats()
	if st.Requests != 1 || st.Latency != lat {
		t.Fatalf("stats = %+v, lat = %v", st, lat)
	}
	if st.Bytes[device.Write] != 128*1024 {
		t.Fatalf("write bytes = %d", st.Bytes[device.Write])
	}
	if st.AvgServiceTime() != lat {
		t.Fatalf("AvgServiceTime = %v, want %v", st.AvgServiceTime(), lat)
	}
}

func TestSubRequestsRunConcurrently(t *testing.T) {
	// A request striped over k servers should complete in roughly the
	// time of one sub-request, not k of them.
	single := measureRequest(t, 1, 64*1024)
	striped := measureRequest(t, 8, 8*64*1024)
	if striped > 3*single {
		t.Fatalf("8-server striped request took %v vs single-unit %v; not concurrent", striped, single)
	}
}

func measureRequest(t *testing.T, servers int, size int64) sim.Duration {
	t.Helper()
	e := sim.New()
	fs, _ := testFS(t, e, servers)
	f, _ := fs.Create("data", 100<<20)
	c := NewClient(fs)
	var lat sim.Duration
	run(t, e, func(p *sim.Proc) {
		lat = call(p, c, f, device.Read, 0, size)
	})
	return lat
}

func TestOutOfRangeRequestPanics(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e, 2)
	f, _ := fs.Create("data", 1<<20)
	c := NewClient(fs)
	panicked := false
	e.Go("main", func(p *sim.Proc) {
		defer func() {
			panicked = recover() != nil
			e.Halt()
		}()
		call(p, c, f, device.Read, 1<<20-10, 100)
	})
	e.Run()
	if !panicked {
		t.Fatal("out-of-range request did not panic")
	}
}

func TestZeroLengthRequestFree(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e, 2)
	f, _ := fs.Create("data", 1<<20)
	c := NewClient(fs)
	run(t, e, func(p *sim.Proc) {
		if lat := call(p, c, f, device.Read, 0, 0); lat != 0 {
			t.Errorf("zero-length read latency %v", lat)
		}
	})
	if fs.Stats().Requests != 0 {
		t.Fatal("zero-length request counted")
	}
	inline := false
	NewClient(fs).Start(f, device.Write, 0, 0, func() { inline = true })
	if !inline || fs.Stats().Requests != 0 {
		t.Fatalf("zero-length Start: continuation ran inline %v, %d requests counted", inline, fs.Stats().Requests)
	}
}

// TestStartCompletesLikeCall: a request issued with Start completes at
// the instant, and with the accounting, of the same request issued by a
// process with Proc.Call, one event sooner: the process resumes from a
// wake its continuation schedules.
func TestStartCompletesLikeCall(t *testing.T) {
	type seen struct {
		at     sim.Time
		events int64
		stats  Stats
	}
	sizes := []int64{65 * 1024, 3 * 1024, 200 * 1024}
	trial := func(issue func(e *sim.Engine, c *Client, f *File, log func())) []seen {
		e := sim.New()
		fs, _ := testFS(t, e, 4)
		f, _ := fs.Create("data", 10<<20)
		var out []seen
		issue(e, NewIBridgeClient(fs, 40*1024, 20*1024), f, func() {
			out = append(out, seen{e.Now(), e.Stats().Events, *fs.Stats()})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := trial(func(e *sim.Engine, c *Client, f *File, log func()) {
		e.Go("reader", func(p *sim.Proc) {
			for _, n := range sizes {
				call(p, c, f, device.Read, 1000, n)
				log()
			}
		})
	})
	for i := range want {
		want[i].events -= int64(i + 1)
	}
	got := trial(func(e *sim.Engine, c *Client, f *File, log func()) {
		i := 0
		var next func()
		next = func() {
			if i > 0 {
				log()
			}
			if i < len(sizes) {
				i++
				c.Start(f, device.Read, 1000, sizes[i-1], next)
			}
		}
		e.After(0, next)
	})
	if len(want) != len(sizes) || !slices.Equal(got, want) {
		t.Errorf("Start completions %+v,\nCall's %+v", got, want)
	}
}

func TestDistinctFilesGetDistinctExtents(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e, 2)
	a, _ := fs.Create("a", 10<<20)
	b, _ := fs.Create("b", 10<<20)
	for s := 0; s < 2; s++ {
		if a.bases[s] == b.bases[s] {
			t.Fatalf("files share base LBN on server %d", s)
		}
	}
	run(t, e, func(p *sim.Proc) {})
}

func TestSectorRoundingForTinyRequests(t *testing.T) {
	// BTIO-style 2160-byte requests are not sector-aligned; the block
	// request must cover the byte extent.
	e := sim.New()
	fs, disks := testFS(t, e, 1)
	f, _ := fs.Create("data", 1<<20)
	c := NewClient(fs)
	run(t, e, func(p *sim.Proc) {
		call(p, c, f, device.Write, 1000, 2160) // bytes [1000, 3160) → sectors [1, 7)
	})
	st := disks[0].Stats()
	if st.Bytes[device.Write] != 6*device.SectorSize {
		t.Fatalf("device wrote %d bytes, want %d", st.Bytes[device.Write], 6*device.SectorSize)
	}
}

func TestFlushIsNoOpOnStockStores(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e, 4)
	var took sim.Duration
	run(t, e, func(p *sim.Proc) {
		start := p.Now()
		p.Call(fs.Flush)
		took = p.Now().Sub(start)
	})
	if took != 0 {
		t.Fatalf("stock flush took %v", took)
	}
}
