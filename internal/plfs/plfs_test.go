package plfs

import (
	"testing"
	"testing/quick"

	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

func testFS(t *testing.T, e *sim.Engine) (*pfs.FileSystem, []*hdd.Disk) {
	t.Helper()
	rng := sim.NewRNG(1)
	disks := make([]*hdd.Disk, 4)
	stores := make([]pfs.Store, 4)
	for i := range stores {
		disks[i] = hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = pfs.NewQueueStore(iosched.New(e, disks[i], iosched.DiskDefaults(), nil))
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{
		Layout: stripe.Layout{Unit: 64 * 1024, Servers: 4},
	}, stores)
	if err != nil {
		t.Fatalf("NewFileSystem: %v", err)
	}
	return fs, disks
}

func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Go("main", func(p *sim.Proc) {
		fn(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// write is Mount.WriteAt from a process: p blocks until the append has
// completed.
func write(p *sim.Proc, m *Mount, rank int, off, n int64) (err error) {
	p.Call(func(done func()) {
		if err = m.WriteAt(rank, off, n, done); err != nil {
			done()
		}
	})
	return err
}

// read is Mount.ReadAt from a process.
func read(p *sim.Proc, m *Mount, off, n int64) (pieces int, err error) {
	p.Call(func(done func()) {
		if pieces, err = m.ReadAt(off, n, done); err != nil {
			done()
		}
	})
	return pieces, err
}

func TestWritesAppendSequentially(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e)
	m, err := Create(fs, "ckpt", 10<<20, 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	run(t, e, func(p *sim.Proc) {
		// Wildly unaligned logical writes from rank 0: log stays
		// append-only.
		offs := []int64{65537, 5, 999999, 300000}
		for _, off := range offs {
			if err := write(p, m, 0, off, 10*1024); err != nil {
				t.Fatalf("WriteAt(%d): %v", off, err)
			}
		}
		if m.logPos[0] != int64(len(offs))*10*1024 {
			t.Fatalf("log position %d, want %d", m.logPos[0], len(offs)*10*1024)
		}
	})
}

func TestReadResolvesLatestWrite(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e)
	m, _ := Create(fs, "ckpt", 10<<20, 2)
	run(t, e, func(p *sim.Proc) {
		write(p, m, 0, 1000, 4096)
		write(p, m, 1, 2000, 4096) // overlaps the tail of rank 0's write
		pieces, err := read(p, m, 1000, 5096)
		if err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		// Index: [1000,2000) from rank 0, [2000,6096) from rank 1.
		if pieces != 2 {
			t.Fatalf("read touched %d pieces, want 2", pieces)
		}
		if got := m.IndexEntries(); got != 2 {
			t.Fatalf("index entries = %d, want 2 (overlap split)", got)
		}
	})
}

func TestIndexPunchSplits(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e)
	m, _ := Create(fs, "ckpt", 10<<20, 1)
	run(t, e, func(p *sim.Proc) {
		write(p, m, 0, 0, 10000)
		write(p, m, 0, 4000, 2000) // punches the middle
		if m.IndexEntries() != 3 {
			t.Fatalf("index entries = %d, want 3 (left, new, right)", m.IndexEntries())
		}
		pieces, _ := read(p, m, 0, 10000)
		if pieces != 3 {
			t.Fatalf("read pieces = %d, want 3", pieces)
		}
	})
}

func TestUnwrittenGapsAreFree(t *testing.T) {
	e := sim.New()
	fs, disks := testFS(t, e)
	m, _ := Create(fs, "ckpt", 10<<20, 1)
	run(t, e, func(p *sim.Proc) {
		before := disks[0].Stats().TotalOps() + disks[1].Stats().TotalOps() +
			disks[2].Stats().TotalOps() + disks[3].Stats().TotalOps()
		pieces, err := read(p, m, 0, 1<<20)
		if err != nil || pieces != 0 {
			t.Fatalf("empty read: %d pieces, %v", pieces, err)
		}
		var after int64
		for _, d := range disks {
			after += d.Stats().TotalOps()
		}
		if after != before {
			t.Fatal("reading unwritten space cost I/O")
		}
	})
}

func TestBoundsChecked(t *testing.T) {
	e := sim.New()
	fs, _ := testFS(t, e)
	m, _ := Create(fs, "ckpt", 1<<20, 1)
	run(t, e, func(p *sim.Proc) {
		if err := write(p, m, 0, 1<<20-10, 100); err == nil {
			t.Error("out-of-range write accepted")
		}
		if err := write(p, m, 5, 0, 100); err == nil {
			t.Error("bad rank accepted")
		}
		if _, err := read(p, m, -1, 10); err == nil {
			t.Error("negative read accepted")
		}
	})
}

// TestIndexMatchesReference property-checks the index against a naive
// per-byte ownership model under random overlapping writes.
func TestIndexMatchesReference(t *testing.T) {
	type op struct {
		Rank uint8
		Off  uint16
		Len  uint8
	}
	if err := quick.Check(func(ops []op) bool {
		e := sim.New()
		fs, _ := testFS(t, e)
		const logical = 1 << 16
		m, err := Create(fs, "ckpt", logical, 4)
		if err != nil {
			return false
		}
		ref := make([]int, logical) // 0 = unwritten, else rank+1
		ok := true
		e.Go("main", func(p *sim.Proc) {
			for _, o := range ops {
				rank := int(o.Rank % 4)
				off := int64(o.Off) % (logical - 256)
				n := int64(o.Len%64) + 1
				if err := write(p, m, rank, off, n); err != nil {
					ok = false
					break
				}
				for b := off; b < off+n; b++ {
					ref[b] = rank + 1
				}
			}
			// Validate: every index entry's range is owned by its rank
			// in the reference, and covered bytes match exactly.
			covered := make([]bool, logical)
			for _, ent := range m.index {
				for b := ent.off; b < ent.end(); b++ {
					if ref[b] != ent.rank+1 || covered[b] {
						ok = false
					}
					covered[b] = true
				}
			}
			for b := range ref {
				if (ref[b] != 0) != covered[b] {
					ok = false
				}
			}
			e.Halt()
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
