package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// These tests exercise the SSD-space partitioning and maintenance
// behaviours beyond the basics covered in bridge_test.go.

func TestPartitionSeparatesClasses(t *testing.T) {
	// With a tiny cache split 1:1, flooding the fragment class must not
	// evict random-class entries.
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) {
		c.SSDCapacity = 40 * device.SectorSize
		c.DynamicPartition = false
		c.StaticFragShare = 0.5
		c.IdleCheck = sim.Second
	})
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		// Fill the random class: four 4-sector entries fit its 20-sector
		// share (each admission also needs its table sector).
		for i := int64(0); i < 4; i++ {
			serve(p, b, random(device.Write, 1<<26+i*100, 4))
			b.trk.prevLBN = 0
		}
		randomUsage, _ := b.Usage()
		// Flood fragments: they may evict each other, never randoms.
		for i := int64(0); i < 20; i++ {
			serve(p, b, frag(device.Write, 1<<27+i*100, 4))
			b.trk.prevLBN = 0
		}
		after, _ := b.Usage()
		if after != randomUsage {
			t.Errorf("random-class usage changed %d → %d under fragment pressure", randomUsage, after)
		}
		// All random entries still readable from the SSD.
		for i := int64(0); i < 4; i++ {
			if _, ok := b.table.covered(1<<26+i*100, 4, nil); !ok {
				t.Errorf("random entry %d evicted by fragment pressure", i)
			}
		}
	})
}

func TestDynamicPartitionFloors(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, nil)
	runSim(t, e, func(p *sim.Proc) {})
	// Extreme imbalance clamps at the 10%/90% floors.
	b.table.retSum[ClassFragment] = 100
	b.table.retCnt[ClassFragment] = 1
	b.table.retSum[ClassRandom] = 1e-9
	b.table.retCnt[ClassRandom] = 1
	total := b.capSectors()
	if f := b.allocFor(ClassFragment); f > total*9/10+1 {
		t.Fatalf("fragment share %d exceeds 90%% cap", f)
	}
	if r := b.allocFor(ClassRandom); r < total/10-1 {
		t.Fatalf("random share %d below 10%% floor", r)
	}
	// No data at all: even split.
	b.table.retCnt = [2]int64{}
	b.table.retSum = [2]float64{}
	if f := b.allocFor(ClassFragment); f != total/2 {
		t.Fatalf("empty-cache fragment share = %d, want %d", f, total/2)
	}
}

func TestStageQueueBounded(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) {
		c.IdleCheck = sim.Second // no draining during the test
	})
	b.stageQueueMax = 4
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		for i := int64(0); i < 10; i++ {
			serve(p, b, frag(device.Read, 1<<27+i*1000, 2))
			b.trk.prevLBN = 0
		}
		if len(b.stage) > 4 {
			t.Errorf("stage queue grew to %d, cap 4", len(b.stage))
		}
	})
}

func TestTablePersistAddsJournalSector(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) { c.IdleCheck = sim.Second })
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		for i := int64(0); i < 5; i++ {
			serve(p, b, frag(device.Write, 1<<27+i*1000, 2))
			b.trk.prevLBN = 0
		}
	})
	if n := b.Stats().Admissions[ClassFragment]; n != 5 {
		t.Fatalf("%d fragment admissions, want 5", n)
	}
	if used := b.alloc.Used(); used != 5*(2+1) {
		t.Fatalf("allocation %d sectors for five 2-sector entries: want exactly one extra sector per entry (15)", used)
	}
}

func TestStagingRespectsPartition(t *testing.T) {
	// Staged read data is subject to the same partition limits as
	// admitted writes.
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) {
		c.SSDCapacity = 16 * device.SectorSize
		c.DynamicPartition = false
		c.StaticFragShare = 0.5
		c.IdleCheck = sim.Millisecond
	})
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		for i := int64(0); i < 10; i++ {
			serve(p, b, frag(device.Read, 1<<27+i*1000, 2))
			b.trk.prevLBN = 0
		}
		p.Sleep(200 * sim.Millisecond) // let staging drain
		_, fragBytes := b.Usage()
		if fragBytes > 8*device.SectorSize {
			t.Errorf("staged fragments occupy %d bytes, partition is %d", fragBytes, 8*device.SectorSize)
		}
	})
}

func TestExchangeViewIndexesMatchServers(t *testing.T) {
	e := sim.New()
	x := NewExchange(e, 10*sim.Millisecond)
	var bridges []*Bridge
	for i := 0; i < 3; i++ {
		d := newTestDisk(e)
		b := NewBridge(e, DefaultConfig(), i, d, newDiskQueue(e, d), newSSDQueue(e), x, sim.NewRNG(uint64(i)))
		bridges = append(bridges, b)
	}
	x.Start()
	runSim(t, e, func(p *sim.Proc) {
		// Raise only server 1's T.
		bridges[1].trk.servedAtDisk(device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 8})
		p.Sleep(20 * sim.Millisecond)
		v := x.View()
		if len(v) != 3 {
			t.Fatalf("view has %d entries", len(v))
		}
		if v[1] <= v[0] || v[1] <= v[2] {
			t.Fatalf("view = %v, want index 1 largest", v)
		}
	})
}
