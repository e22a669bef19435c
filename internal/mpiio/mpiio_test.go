package mpiio

import (
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

func testWorld(t *testing.T, e *sim.Engine, ranks int) (*World, *pfs.FileSystem) {
	t.Helper()
	rng := sim.NewRNG(1)
	stores := make([]pfs.Store, 4)
	for i := range stores {
		d := hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = pfs.NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil))
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{
		Layout: stripe.Layout{Unit: 64 * 1024, Servers: 4},
	}, stores)
	if err != nil {
		t.Fatalf("NewFileSystem: %v", err)
	}
	f, err := fs.Create("data", 64<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return NewWorld(e, pfs.NewClient(fs), f, ranks), fs
}

func TestSpawnRunsAllRanks(t *testing.T) {
	e := sim.New()
	w, _ := testWorld(t, e, 8)
	seen := make([]bool, 8)
	e.Go("driver", func(p *sim.Proc) {
		done := w.Spawn("job", func(r *Rank) {
			seen[r.ID] = true
		})
		done.Wait(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d did not run", i)
		}
	}
}

func TestRanksHaveDistinctOrigins(t *testing.T) {
	e := sim.New()
	w, fs := testWorld(t, e, 4)
	_ = fs
	origins := map[int32]bool{}
	e.Go("driver", func(p *sim.Proc) {
		done := w.Spawn("job", func(r *Rank) {
			origins[r.client.Origin] = true
		})
		done.Wait(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(origins) != 4 {
		t.Fatalf("%d distinct origins, want 4", len(origins))
	}
	if origins[0] {
		t.Fatal("rank used the zero origin reserved for server-internal traffic")
	}
}

func TestBarrierAcrossRanks(t *testing.T) {
	e := sim.New()
	w, _ := testWorld(t, e, 4)
	var after []sim.Time
	e.Go("driver", func(p *sim.Proc) {
		done := w.Spawn("job", func(r *Rank) {
			r.Compute(sim.Duration(r.ID) * sim.Millisecond)
			r.Barrier()
			after = append(after, r.P.Now())
		})
		done.Wait(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, at := range after {
		if at != sim.Time(3*sim.Millisecond) {
			t.Fatalf("rank passed barrier at %v, want 3ms", at)
		}
	}
}

func TestReadWriteThroughRanks(t *testing.T) {
	e := sim.New()
	w, fs := testWorld(t, e, 2)
	e.Go("driver", func(p *sim.Proc) {
		done := w.Spawn("job", func(r *Rank) {
			off := int64(r.ID) * 64 * 1024
			if d := r.WriteAt(off, 64*1024); d <= 0 {
				t.Errorf("rank %d write latency %v", r.ID, d)
			}
			if d := r.ReadAt(off, 64*1024); d <= 0 {
				t.Errorf("rank %d read latency %v", r.ID, d)
			}
		})
		done.Wait(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := fs.Stats()
	if st.Requests != 4 {
		t.Fatalf("requests = %d, want 4", st.Requests)
	}
	if st.Bytes[device.Read] != 2*64*1024 || st.Bytes[device.Write] != 2*64*1024 {
		t.Fatalf("bytes = %v", st.Bytes)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	e := sim.New()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world accepted")
		}
	}()
	NewWorld(e, nil, nil, 0)
}
