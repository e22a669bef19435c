package pfs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// checkStore serves through a disk queue and checks every request it is
// handed twice: on arrival, against the layout (which sub-request of
// which parent it must be), and after its service, that nothing in it
// changed while it was in flight. A parent recycled before its last
// reply fails one of the two.
type checkStore struct {
	t      *testing.T
	e      *sim.Engine
	inner  Store
	expect func(r *IORequest) error
	served int
}

func (s *checkStore) Start(r *IORequest, done func()) {
	if err := s.expect(r); err != nil {
		s.t.Errorf("at %v: %v: %v", s.e.Now(), r, err)
	}
	before := *r
	before.Siblings = slices.Clone(r.Siblings)
	s.inner.Start(r, func() {
		if !equalRequests(*r, before) {
			s.t.Errorf("at %v: request changed while in flight: %+v, was %+v", s.e.Now(), *r, before)
		}
		s.served++
		done()
	})
}

func (s *checkStore) Flush(done func()) { done() }

func equalRequests(a, b IORequest) bool {
	return a.Op == b.Op && a.FileID == b.FileID && a.ID == b.ID && a.LBN == b.LBN &&
		a.Sectors == b.Sectors && a.Bytes == b.Bytes && a.Fragment == b.Fragment &&
		slices.Equal(a.Siblings, b.Siblings) && a.Random == b.Random && a.Server == b.Server &&
		a.Origin == b.Origin
}

// TestRecycledParentsNeverAlias: many ranks issue concurrent striped
// iBridge requests of two sizes (so recycled parents change their
// sub-request count both ways) with seeded think times in between. Every
// sub-request a store sees must be exactly the run the layout derives
// from its parent, for as long as the store holds it.
func TestRecycledParentsNeverAlias(t *testing.T) {
	const (
		servers   = 8
		ranks     = 12
		perRank   = 40
		threshold = 40 * 1024
	)
	layout := stripe.Layout{Unit: 64 * 1024, Servers: servers}
	sizes := []int64{65 * 1024, 200 * 1024} // multiples of a sector, one file each

	e := sim.New()
	rng := sim.NewRNG(3)
	stores := make([]*checkStore, servers)
	fsStores := make([]Store, servers)
	var files []*File
	for i := range stores {
		d := hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = &checkStore{t: t, e: e, inner: NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil))}
		stores[i].expect = func(r *IORequest) error {
			f := files[r.FileID]
			size := sizes[r.FileID]
			serverOff := (r.LBN - f.bases[r.Server]) * device.SectorSize
			unit := (serverOff/layout.Unit)*servers + int64(r.Server)
			parent := (unit*layout.Unit + serverOff%layout.Unit) / size
			if parent%ranks != int64(r.Origin) {
				return fmt.Errorf("parent %d belongs to rank %d, not origin %d", parent, parent%ranks, r.Origin)
			}
			runs, _ := layout.AppendRuns(nil, nil, parent*size, size, threshold)
			for _, sub := range runs {
				if sub.Server != r.Server {
					continue
				}
				want := IORequest{Op: r.Op, FileID: r.FileID, Bytes: sub.Length, Fragment: sub.Fragment,
					Siblings: sub.Siblings, Server: sub.Server, Origin: r.Origin,
					LBN: f.bases[r.Server] + sub.ServerOff/device.SectorSize, Sectors: sub.Length / device.SectorSize}
				if !equalRequests(*r, want) {
					return fmt.Errorf("want %+v (siblings %v)", want, want.Siblings)
				}
				return nil
			}
			return fmt.Errorf("parent %d has no sub-request on server %d", parent, r.Server)
		}
		fsStores[i] = stores[i]
	}
	fs, err := NewFileSystem(e, Config{Layout: layout}, fsStores)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range sizes {
		f, err := fs.Create(fmt.Sprintf("f%d", i), size*ranks*perRank)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	base := NewIBridgeClient(fs, threshold, 20*1024)
	left := ranks
	for r := 0; r < ranks; r++ {
		c, think := base.WithOrigin(int32(r)), rng.Fork()
		e.Go("rank", func(p *sim.Proc) {
			for k := 0; k < perRank; k++ {
				i := (k + r) % len(sizes)
				off := int64(k*ranks+r) * sizes[i]
				op := device.Write
				if k%3 == 0 {
					op = device.Read
				}
				call(p, c, files[i], op, off, sizes[i])
				p.Sleep(think.Duration(0, 2*sim.Millisecond))
			}
			if left--; left == 0 {
				e.Halt()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, s := range stores {
		served += s.served
	}
	if st := fs.Stats(); st.Requests != ranks*perRank || int64(served) != st.SubCount {
		t.Fatalf("%d requests, %d sub-requests served of %d", st.Requests, served, st.SubCount)
	}
	// Every parent came back, and no more were made than were ever in
	// flight at once.
	if n := len(fs.free); n == 0 || n > ranks {
		t.Fatalf("%d parents on the free list, want 1..%d", n, ranks)
	}
}

// TestWarmRequestAllocations bounds what a striped 65 KB iBridge write
// or read allocates once the file system is warm: its parent,
// sub-requests, sibling lists, scheduler units and job queue slots are
// all recycled, and the device queues dispatch from callbacks bound
// once, so nothing is left.
func TestWarmRequestAllocations(t *testing.T) {
	const maxAllocs = 0
	for _, c := range []struct {
		name string
		op   device.Op
	}{{"Write", device.Write}, {"Read", device.Read}} {
		op := c.op
		t.Run(c.name, func(t *testing.T) {
			e := sim.New()
			fs, _ := testFS(t, e, 8)
			const size = 65 * 1024
			f, _ := fs.Create("data", 64*size)
			c := NewIBridgeClient(fs, 40*1024, 20*1024)
			k := 0
			var allocs float64
			run(t, e, func(p *sim.Proc) {
				wake := func() { e.Wake(p) }
				request := func() {
					c.Start(f, op, int64(k%64)*size, size, wake)
					p.Block()
					k++
				}
				for i := 0; i < 64; i++ {
					request()
				}
				allocs = testing.AllocsPerRun(200, request)
			})
			t.Logf("%.1f allocs per warm request", allocs)
			if allocs > maxAllocs {
				t.Errorf("%.1f allocs per warm 65 KB request, want <= %d", allocs, maxAllocs)
			}
		})
	}
}

// TestWarmReadaheadRequestAllocations is TestWarmRequestAllocations for
// sequential 65 KB reads through readahead: a read extended to a window
// keeps its extended request in recycled storage, so warm requests
// allocate nothing, those a server extends included.
func TestWarmReadaheadRequestAllocations(t *testing.T) {
	const maxAllocs = 0
	e := sim.New()
	rng := sim.NewRNG(99)
	ras := make([]*ReadaheadStore, 8)
	stores := make([]Store, len(ras))
	for i := range stores {
		d := hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		ras[i] = NewReadaheadStore(NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil)))
		stores[i] = ras[i]
	}
	fs, err := NewFileSystem(e, Config{Layout: stripe.Layout{Unit: 64 * 1024, Servers: len(stores)}}, stores)
	if err != nil {
		t.Fatal(err)
	}
	const size = 65 * 1024
	f, _ := fs.Create("data", 1024*size)
	c := NewClient(fs)
	k := 0
	var wake func()
	request := func(p *sim.Proc) {
		c.Start(f, device.Read, int64(k%1024)*size, size, wake)
		p.Block()
		k++
	}
	extended := func() (n int64) {
		for _, ra := range ras {
			n += ra.Stats().Extended
		}
		return n
	}
	var allocs float64
	run(t, e, func(p *sim.Proc) {
		wake = func() { e.Wake(p) }
		for i := 0; i < 64; i++ {
			request(p)
		}
		// One run is the requests up to and including the next one a
		// server extends, so a per-extension allocation counts whole.
		allocs = testing.AllocsPerRun(100, func() {
			for n := extended(); extended() == n; {
				request(p)
			}
		})
	})
	t.Logf("%.1f allocs per warm run of requests up to an extended read (%d requests, %d extended)", allocs, k, extended())
	if allocs > maxAllocs {
		t.Errorf("%.1f allocs per warm run of 65 KB readahead requests, want <= %d", allocs, maxAllocs)
	}
}
