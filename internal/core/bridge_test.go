package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stripe"
)

// Test helpers shared with model_test.go.

func newDiskQueue(e *sim.Engine, d *hdd.Disk) *iosched.Queue {
	return iosched.New(e, d, iosched.DiskDefaults(), nil)
}

func newSSDQueue(e *sim.Engine) *iosched.Queue {
	return iosched.New(e, ssd.New(ssd.DefaultSpec()), iosched.SSDDefaults(), nil)
}

// testBridge builds a standalone bridge (no exchange) with the given
// config tweaks applied.
func testBridge(e *sim.Engine, mod func(*Config)) (*Bridge, *hdd.Disk) {
	cfg := DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	d := hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1))
	b := NewBridge(e, cfg, 0, d, newDiskQueue(e, d), newSSDQueue(e), nil, sim.NewRNG(2))
	return b, d
}

// runSim runs fn in a simulated process, halting afterwards.
func runSim(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Go("test-main", func(p *sim.Proc) {
		fn(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// serve runs r through b from process p, blocking p until it completes.
func serve(p *sim.Proc, b *Bridge, r *pfs.IORequest) {
	p.Call(func(done func()) { b.Start(r, done) })
}

// flush and failSSD run b's Flush and FailSSD from process p.
func flush(p *sim.Proc, b *Bridge)   { p.Call(b.Flush) }
func failSSD(p *sim.Proc, b *Bridge) { p.Call(b.FailSSD) }

// stageOne and writebackPass run one maintenance step on an op of its
// own from process p.
func stageOne(p *sim.Proc, b *Bridge, it stageItem) {
	p.Call(func(done func()) { b.newOp().stageOne(it, done) })
}

func writebackPass(p *sim.Proc, b *Bridge, batch int) {
	p.Call(func(done func()) { b.newOp().writebackPass(batch, done) })
}

// frag builds a fragment write/read request.
func frag(op device.Op, lbn, sectors int64) *pfs.IORequest {
	return &pfs.IORequest{
		Op: op, LBN: lbn, Sectors: sectors, Bytes: sectors * device.SectorSize,
		Fragment: true, Siblings: []int{1}, Server: 0,
	}
}

// random builds a regular random request.
func random(op device.Op, lbn, sectors int64) *pfs.IORequest {
	return &pfs.IORequest{
		Op: op, LBN: lbn, Sectors: sectors, Bytes: sectors * device.SectorSize,
		Random: true, Server: 0,
	}
}

// large builds a non-candidate bulk request.
func large(op device.Op, lbn, sectors int64) *pfs.IORequest {
	return &pfs.IORequest{Op: op, LBN: lbn, Sectors: sectors, Bytes: sectors * device.SectorSize, Server: 0}
}

// driveT initializes the bridge's T with a cheap sequential request, so
// that a subsequent far-seeking candidate shows a clearly positive return.
func driveT(p *sim.Proc, b *Bridge) {
	serve(p, b, large(device.Read, 0, 128)) // contiguous with head at 0
}

func TestFragmentWriteRedirectedToSSD(t *testing.T) {
	e := sim.New()
	b, d := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		before := d.Stats().Bytes[device.Write]
		serve(p, b, frag(device.Write, 1<<27, 2)) // 1 KB fragment, far away
		if d.Stats().Bytes[device.Write] != before {
			t.Error("fragment write reached the disk")
		}
	})
	if b.Stats().SSDWriteBytes == 0 {
		t.Fatal("no SSD write recorded")
	}
	if b.Stats().Admissions[ClassFragment] != 1 {
		t.Fatalf("admissions = %v", b.Stats().Admissions)
	}
}

func TestLargeSubRequestNeverRedirected(t *testing.T) {
	e := sim.New()
	b, d := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, large(device.Write, 1<<27, 128))
	})
	if b.Stats().SSDWriteBytes != 0 {
		t.Fatal("bulk sub-request went to SSD")
	}
	if d.Stats().Bytes[device.Write] == 0 {
		t.Fatal("bulk sub-request did not reach disk")
	}
}

func TestNegativeReturnStaysOnDisk(t *testing.T) {
	// A request contiguous with the previous disk location has a small
	// sample; with high T it yields a negative return and stays on
	// disk (serving it there *improves* disk efficiency).
	e := sim.New()
	b, d := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {
		// Raise T with an expensive far request.
		serve(p, b, large(device.Read, 1<<28, 128))
		// Now a random request exactly at the disk's last location:
		// near-zero positioning cost, sample ≪ T → negative return.
		before := b.Stats().SSDWriteBytes
		serve(p, b, random(device.Write, b.trk.prevLBN, 2))
		if b.Stats().SSDWriteBytes != before {
			t.Error("cheap-on-disk request was redirected")
		}
	})
	if d.Stats().Ops[device.Write] != 1 {
		t.Fatalf("disk writes = %d, want 1", d.Stats().Ops[device.Write])
	}
}

func TestReadHitServedFromSSD(t *testing.T) {
	e := sim.New()
	b, d := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, frag(device.Write, 1<<27, 2))
		diskReads := d.Stats().Ops[device.Read]
		serve(p, b, frag(device.Read, 1<<27, 2))
		if d.Stats().Ops[device.Read] != diskReads {
			t.Error("read hit went to disk")
		}
	})
	if b.Stats().Hits != 1 {
		t.Fatalf("hits = %d, want 1", b.Stats().Hits)
	}
	if b.Stats().SSDReadBytes != 2*device.SectorSize {
		t.Fatalf("SSD read bytes = %d", b.Stats().SSDReadBytes)
	}
}

func TestReadMissGoesToDiskAndStages(t *testing.T) {
	e := sim.New()
	b, d := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, frag(device.Read, 1<<27, 2))
		if d.Stats().Ops[device.Read] != 2 { // driveT + miss
			t.Errorf("disk reads = %d", d.Stats().Ops[device.Read])
		}
		if len(b.stage) != 1 {
			t.Errorf("stage queue = %d, want 1", len(b.stage))
		}
		// Idle for a while: the maintenance daemon stages the extent.
		p.Sleep(50 * sim.Millisecond)
		if b.Stats().StagedBytes == 0 {
			t.Error("staging did not run during idle period")
		}
		// A repeat of the same read now hits.
		serve(p, b, frag(device.Read, 1<<27, 2))
		if b.Stats().Hits != 1 {
			t.Errorf("hits = %d after staging", b.Stats().Hits)
		}
	})
}

func TestWriteInvalidatesStaleCache(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, frag(device.Write, 1<<27, 2)) // cached dirty
		// Overwrite the same range with a bulk (non-candidate) write:
		// the cached copy must be dropped.
		serve(p, b, large(device.Write, 1<<27, 2))
		if _, ok := b.table.covered(1<<27, 2, nil); ok {
			t.Error("stale cached extent survived an overwrite")
		}
		// A read now must miss.
		serve(p, b, frag(device.Read, 1<<27, 2))
		if b.Stats().Hits != 0 {
			t.Error("read hit on invalidated data")
		}
	})
}

func TestFlushWritesBackAllDirty(t *testing.T) {
	e := sim.New()
	b, d := testBridge(e, func(c *Config) {
		c.IdleCheck = sim.Second // keep the daemon out of the way
	})
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		for i := int64(0); i < 10; i++ {
			serve(p, b, frag(device.Write, 1<<27+i*1000, 2))
			b.trk.prevLBN = 0
		}
		if b.DirtySectors() != 20 {
			t.Fatalf("dirty sectors = %d, want 20", b.DirtySectors())
		}
		diskWritesBefore := d.Stats().Ops[device.Write]
		flush(p, b)
		if b.DirtySectors() != 0 {
			t.Error("dirty data survived Flush")
		}
		if d.Stats().Ops[device.Write] == diskWritesBefore {
			t.Error("Flush wrote nothing to disk")
		}
	})
	if b.Stats().WritebackBytes != 10*2*device.SectorSize {
		t.Fatalf("writeback bytes = %d", b.Stats().WritebackBytes)
	}
}

func TestIdleWritebackRuns(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) { c.WritebackMinDirty = 0 })
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, frag(device.Write, 1<<27, 2))
		p.Sleep(100 * sim.Millisecond) // idle
		if b.DirtySectors() != 0 {
			t.Error("idle writeback did not clean dirty data")
		}
	})
	if b.Stats().WritebackBytes == 0 {
		t.Fatal("no writeback bytes recorded")
	}
}

func TestEvictionLRUWithinPartition(t *testing.T) {
	e := sim.New()
	// Tiny cache: 20 sectors total, fragments get half (static) = 10.
	b, _ := testBridge(e, func(c *Config) {
		c.SSDCapacity = 20 * device.SectorSize
		c.DynamicPartition = false
		c.StaticFragShare = 0.5
		c.IdleCheck = sim.Second
	})
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		// Four 2-sector fragments fill the 10-sector fragment share: each
		// admission needs its 2 sectors plus the table sector.
		for i := int64(0); i < 4; i++ {
			serve(p, b, frag(device.Write, 1<<27+i*100, 2))
			b.trk.prevLBN = 0
		}
		if b.Stats().Evictions != 0 {
			t.Fatalf("premature evictions: %d", b.Stats().Evictions)
		}
		// A fifth must evict the LRU (first) entry.
		serve(p, b, frag(device.Write, 1<<27+400, 2))
		if b.Stats().Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", b.Stats().Evictions)
		}
		if _, ok := b.table.covered(1<<27, 2, nil); ok {
			t.Error("LRU entry still cached")
		}
		if _, ok := b.table.covered(1<<27+400, 2, nil); !ok {
			t.Error("newest entry not cached")
		}
	})
}

func TestOversizedCandidateRejected(t *testing.T) {
	e := sim.New()
	b, d := testBridge(e, func(c *Config) {
		c.SSDCapacity = 8 * device.SectorSize
		c.DynamicPartition = false
		c.StaticFragShare = 0.5
	})
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, frag(device.Write, 1<<27, 32)) // larger than partition
	})
	if b.Stats().Rejections != 1 {
		t.Fatalf("rejections = %d, want 1", b.Stats().Rejections)
	}
	if d.Stats().Ops[device.Write] != 1 {
		t.Fatal("rejected request did not fall back to disk")
	}
}

func TestDynamicPartitionFollowsReturns(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) { c.IdleCheck = sim.Second })
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		// Admit fragments with large recorded returns by hand-tuning
		// the accounting, then check allocFor.
		b.table.retSum[ClassFragment] = 0.9
		b.table.retCnt[ClassFragment] = 1
		b.table.retSum[ClassRandom] = 0.1
		b.table.retCnt[ClassRandom] = 1
		fragAlloc := b.allocFor(ClassFragment)
		randAlloc := b.allocFor(ClassRandom)
		if fragAlloc <= randAlloc {
			t.Errorf("fragment alloc %d not above random alloc %d", fragAlloc, randAlloc)
		}
		if got := float64(fragAlloc) / float64(b.capSectors()); got < 0.85 || got > 0.95 {
			t.Errorf("fragment share = %.2f, want ≈0.9 (clamped)", got)
		}
	})
}

func TestStaticPartitionShares(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) {
		c.DynamicPartition = false
		c.StaticFragShare = 2.0 / 3.0 // the paper's 1:2 configuration
	})
	runSim(t, e, func(p *sim.Proc) {})
	total := b.capSectors()
	if f := b.allocFor(ClassFragment); f < total*2/3-1 || f > total*2/3+1 {
		t.Fatalf("fragment alloc = %d, want ≈%d", f, total*2/3)
	}
}

func TestMagnificationChangesDecision(t *testing.T) {
	// With magnification, a fragment on the slowest disk gets a boost
	// that can flip a marginal negative return positive.
	e := sim.New()
	x := NewExchange(e, 10*sim.Millisecond)
	cfg := DefaultConfig()
	mk := func(i int) *Bridge {
		d := hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(uint64(i)))
		return NewBridge(e, cfg, i, d, newDiskQueue(e, d), newSSDQueue(e), x, sim.NewRNG(uint64(10+i)))
	}
	b0, b1 := mk(0), mk(1)
	_ = b1 // stays at T = 0: the fast sibling
	x.Start()
	runSim(t, e, func(p *sim.Proc) {
		// Make server 0 slow (high T) and let a broadcast happen.
		serve(p, b0, large(device.Read, 1<<30, 128))
		p.Sleep(20 * sim.Millisecond)
		// A fragment contiguous with the previous location: raw return
		// is negative (serving it on disk is cheap).
		r := frag(device.Write, b0.trk.prevLBN, 2)
		r.Siblings = []int{1}
		raw := b0.trk.hypothetical(r.Request()) - b0.trk.T()
		if raw > 0 {
			t.Fatalf("raw return %v unexpectedly positive", raw)
		}
		boosted, boost := b0.evalReturn(r)
		if boost <= 0 {
			t.Errorf("expected a positive Eq. (3) boost, got %v", boost)
		}
		if boosted <= raw {
			t.Errorf("magnification did not raise return: raw %v, boosted %v", raw, boosted)
		}
		if boosted <= 0 {
			t.Errorf("boost did not flip the decision: %v", boosted)
		}
		// With magnification disabled the boost disappears.
		b0.cfg.Magnification = false
		if got, gotBoost := b0.evalReturn(r); got != raw || gotBoost != 0 {
			t.Errorf("ablation: return = %v boost = %v, want raw %v and no boost", got, gotBoost, raw)
		}
	})
}

func TestPeakUsageTracked(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) { c.IdleCheck = sim.Second })
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		for i := int64(0); i < 5; i++ {
			serve(p, b, frag(device.Write, 1<<27+i*100, 2))
			b.trk.prevLBN = 0
		}
	})
	// Usage counts mapped sectors: the table sectors are not data.
	if b.Stats().PeakUsage != 10*device.SectorSize {
		t.Fatalf("peak usage = %d, want %d", b.Stats().PeakUsage, 10*device.SectorSize)
	}
}

func TestSSDFractionStat(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, frag(device.Write, 1<<27, 2))    // SSD: 1 KB
		serve(p, b, large(device.Write, 1<<26, 126)) // disk: 63 KB
	})
	st := b.Stats()
	// driveT read 64 KB from disk; total = 64+63+1 = 128 KB, SSD = 1 KB.
	want := 1.0 / 128.0
	if got := st.SSDFraction(); got < want*0.9 || got > want*1.1 {
		t.Fatalf("SSD fraction = %v, want ≈%v", got, want)
	}
}

// TestWarmBridgeRequestAllocations bounds what a warm striped 65 KB
// request allocates through two bridges: a write whose 1 KB fragment is
// admitted into the SSD cache, and a read that misses (a 64 KB piece and
// a 1 KB fragment, both from the disk). The serve path is a chain of
// continuations on recycled ops with steps bound once, so the only
// allocation left is the admitted write's cache entry.
func TestWarmBridgeRequestAllocations(t *testing.T) {
	const size = 65 * 1024
	for _, c := range []struct {
		name      string
		maxAllocs float64
		op        device.Op
		off       func(k int) int64
		progress  func(st *Stats) int64
	}{
		{"fragment write", 1, device.Write,
			func(k int) int64 { return 0 },
			func(st *Stats) int64 { return st.Admissions[ClassFragment] }},
		{"read miss", 0, device.Read,
			func(k int) int64 { return int64(1+k) * 128 * 1024 },
			func(st *Stats) int64 { return st.Misses }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := sim.New()
			bridges := make([]*Bridge, 2)
			stores := make([]pfs.Store, len(bridges))
			for i := range bridges {
				d := hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(uint64(1+i)))
				bridges[i] = NewBridge(e, DefaultConfig(), i, d, newDiskQueue(e, d), newSSDQueue(e), nil, sim.NewRNG(uint64(10+i)))
				stores[i] = bridges[i]
			}
			fs, err := pfs.NewFileSystem(e, pfs.Config{Layout: stripe.Layout{Unit: 64 * 1024, Servers: len(stores)}}, stores)
			if err != nil {
				t.Fatal(err)
			}
			f, _ := fs.Create("data", 1<<30)
			client := pfs.NewIBridgeClient(fs, 20*1024, 20*1024)
			progress := func() (n int64) {
				for _, b := range bridges {
					n += c.progress(b.Stats())
				}
				return n
			}
			k := 0
			var allocs float64
			var before int64
			runSim(t, e, func(p *sim.Proc) {
				wake := func() { e.Wake(p) }
				req := func() {
					client.Start(f, c.op, c.off(k), size, wake)
					p.Block()
				}
				for ; k < 64; k++ {
					req()
				}
				before = progress()
				allocs = testing.AllocsPerRun(200, func() {
					req()
					k++
				})
			})
			if progress()-before < 200 {
				t.Fatalf("%d of 201 requests took the path under test", progress()-before)
			}
			t.Logf("%.1f allocs per warm request", allocs)
			if allocs > c.maxAllocs {
				t.Errorf("%.1f allocs per warm 65 KB %s, want <= %.0f", allocs, c.name, c.maxAllocs)
			}
		})
	}
}
