package pfs

import (
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/sim"
)

// raFixture builds a readahead store over a disk.
func raFixture(t *testing.T, e *sim.Engine) (*ReadaheadStore, *hdd.Disk) {
	t.Helper()
	d := hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1))
	inner := NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil))
	return NewReadaheadStore(inner), d
}

// serve runs r through s from process p, blocking p until it completes.
func serve(p *sim.Proc, s Store, r *IORequest) {
	p.Call(func(done func()) { s.Start(r, done) })
}

func read(file int, lbn, sectors int64) *IORequest {
	return &IORequest{Op: device.Read, LBN: lbn, Sectors: sectors,
		Bytes: sectors * device.SectorSize, FileID: file}
}

func TestReadaheadExtendsSequentialStream(t *testing.T) {
	e := sim.New()
	ra, d := raFixture(t, e)
	e.Go("main", func(p *sim.Proc) {
		// Three sequential 8KB reads: by the third, readahead kicks in
		// and extends to the 128KB window.
		for i := int64(0); i < 3; i++ {
			serve(p, ra, read(1, i*16, 16))
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ra.Stats().Extended == 0 {
		t.Fatal("sequential stream never extended")
	}
	if d.Stats().Bytes[device.Read] <= 3*8*1024 {
		t.Fatalf("device read only %d bytes; readahead did not grow the request", d.Stats().Bytes[device.Read])
	}
}

func TestReadaheadIgnoresRandomAccess(t *testing.T) {
	e := sim.New()
	ra, d := raFixture(t, e)
	e.Go("main", func(p *sim.Proc) {
		for _, lbn := range []int64{1 << 20, 5, 1 << 24, 900} {
			serve(p, ra, read(1, lbn, 16))
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ra.Stats().Extended != 0 {
		t.Fatalf("random access extended %d times", ra.Stats().Extended)
	}
	if d.Stats().Bytes[device.Read] != 4*16*device.SectorSize {
		t.Fatalf("device read %d bytes, want exactly the requests", d.Stats().Bytes[device.Read])
	}
}

func TestReadaheadReadsThroughSmallHoles(t *testing.T) {
	// 54KB pieces with 10KB holes (the iBridge +10KB pattern after
	// fragment absorption) must be detected as one stream.
	e := sim.New()
	ra, _ := raFixture(t, e)
	e.Go("main", func(p *sim.Proc) {
		lbn := int64(0)
		for i := 0; i < 5; i++ {
			serve(p, ra, read(1, lbn, 108)) // 54 KB
			lbn += 108 + 20                 // 10 KB hole
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ra.Stats().SequentialHits < 4 {
		t.Fatalf("only %d sequential hits across the hole-y stream", ra.Stats().SequentialHits)
	}
	if ra.Stats().Extended == 0 {
		t.Fatal("hole-y stream never extended")
	}
}

func TestReadaheadTracksFilesIndependently(t *testing.T) {
	e := sim.New()
	ra, _ := raFixture(t, e)
	e.Go("main", func(p *sim.Proc) {
		// Interleaved: each file object is sequential in its own
		// region; together they alternate. Per-file tracking must
		// still detect both streams.
		for i := int64(0); i < 4; i++ {
			serve(p, ra, read(1, i*16, 16))
			serve(p, ra, read(2, 1<<20+i*16, 16))
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ra.Stats().SequentialHits < 6 {
		t.Fatalf("per-origin detection broken: %d hits", ra.Stats().SequentialHits)
	}
}

func TestReadaheadPassesWritesThrough(t *testing.T) {
	e := sim.New()
	ra, d := raFixture(t, e)
	e.Go("main", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			serve(p, ra, &IORequest{Op: device.Write, LBN: i * 16, Sectors: 16,
				Bytes: 16 * device.SectorSize, FileID: 1})
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ra.Stats().Reads != 0 || ra.Stats().Extended != 0 {
		t.Fatal("writes entered the readahead path")
	}
	if d.Stats().Bytes[device.Write] != 4*16*device.SectorSize {
		t.Fatal("writes altered")
	}
}

func TestReadaheadStreamTableBounded(t *testing.T) {
	e := sim.New()
	ra, _ := raFixture(t, e)
	ra.MaxStreams = 8
	e.Go("main", func(p *sim.Proc) {
		for o := 1; o <= 50; o++ {
			serve(p, ra, read(o, int64(o)*1000, 8))
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ra.streams) > 8 {
		t.Fatalf("stream table grew to %d", len(ra.streams))
	}
}
