package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
)

// scanDirty is the full scan the running totals replaced: the dirty
// sector sum and the owner of the lowest dirty extent, extent by extent.
func scanDirty(m *table) (sum int64, first *entry) {
	for _, x := range m.list {
		if e := m.entries[x.Seg]; e.dirty {
			sum += x.N
			if first == nil {
				first = e
			}
		}
	}
	return sum, first
}

// checkDirty asserts the O(1) accounting against a scan of the table:
// the dirty total and the writeback cursor; per class, the usage against
// the mapped sectors, and the LRU walk, its count and the cached entries
// against each other; per entry, its live count against its extents.
func checkDirty(t *testing.T, b *Bridge, step string) {
	t.Helper()
	m := b.table
	sum, first := scanDirty(m)
	if got := b.DirtySectors(); got != sum {
		t.Fatalf("%s: DirtySectors() = %d, scan says %d", step, got, sum)
	}
	if got := m.firstDirty(); got != first {
		t.Fatalf("%s: firstDirty() = %+v, scan says %+v", step, got, first)
	}
	var mapped [2]int64
	live := map[*entry]int64{}
	for _, x := range m.list {
		e := m.entries[x.Seg]
		mapped[e.class] += x.N
		live[e] += x.N
	}
	var cached [2]int
	for e, n := range live {
		cached[e.class]++
		if e.live != n {
			t.Fatalf("%s: entry %d counts %d live sectors, the table maps %d", step, e.id, e.live, n)
		}
	}
	if len(live) != len(m.entries) {
		t.Fatalf("%s: %d entries kept, %d mapped", step, len(m.entries), len(live))
	}
	for c := range mapped {
		if m.usage[c] != mapped[c] {
			t.Fatalf("%s: class %d usage %d, the table maps %d", step, c, m.usage[c], mapped[c])
		}
		walked := 0
		for e := m.lru[c].head; e != nil && walked <= len(m.entries); e = e.next {
			walked++
		}
		if walked != m.lru[c].count || walked != cached[c] {
			t.Fatalf("%s: class %d LRU walk %d, count %d, cached entries %d", step, c, walked, m.lru[c].count, cached[c])
		}
	}
}

// dirtyOrder lists the ids of the table's dirty entries in the order of
// their lowest mapped extent: the order writeback must visit them in.
func dirtyOrder(m *table) []uint64 {
	var out []uint64
	seen := map[uint64]bool{}
	for _, x := range m.list {
		if m.entries[x.Seg].dirty && !seen[x.Seg] {
			seen[x.Seg] = true
			out = append(out, x.Seg)
		}
	}
	return out
}

// TestDirtyAccountingProperty drives random admit / overwrite / bulk
// write / read / writeback / evict / SSD-failure sequences against a
// small bridge and asserts after every step that the running dirty total
// and the firstDirty cursor agree with a full scan of the table, that the
// per-class usage and LRU lists match the entries the table maps, that a
// writeback pass visits exactly the dirty entries the scan lists, in the
// order of their lowest extent.
func TestDirtyAccountingProperty(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			e := sim.New()
			b, _ := testBridge(e, func(c *Config) {
				c.SSDCapacity = 192 * device.SectorSize // evictions from the first few dozen admissions on
				c.IdleCheck = 1 << 40                   // the daemon stays out of the single-stepped sequence
			})
			rng := sim.NewRNG(seed)
			const base = 1 << 26
			runSim(t, e, func(p *sim.Proc) {
				driveT(p, b)
				for i := 0; i < 400; i++ {
					// Extents of 1–20 sectors at 8-sector slots plus an
					// offset: later writes land inside, on the head, on
					// the tail of, and across earlier ones.
					lbn := base + int64(rng.Range(0, 48))*8 + int64(rng.Range(0, 8))
					n := int64(rng.Range(1, 21))
					var step string
					switch k := rng.Range(0, 100); {
					case k < 45:
						step = fmt.Sprintf("frag write [%d,+%d)", lbn, n)
						serve(p, b, frag(device.Write, lbn, n))
					case k < 60:
						step = fmt.Sprintf("random write [%d,+%d)", lbn, n)
						serve(p, b, random(device.Write, lbn, n))
					case k < 70:
						// Not a candidate: takes the disk path and punches
						// whatever it overlaps out of the cache.
						step = fmt.Sprintf("bulk write [%d,+%d)", lbn, 4*n)
						serve(p, b, large(device.Write, lbn, 4*n))
					case k < 82:
						step = fmt.Sprintf("read [%d,+%d)", lbn, n)
						serve(p, b, frag(device.Read, lbn, n))
					case k < 90:
						for len(b.stage) > 0 {
							it := b.stage[0]
							b.stage = b.stage[1:]
							stageOne(p, b, it)
						}
						step = "stage"
					case k < 99:
						batch := int(rng.Range(1, 6))
						var order []*entry
						for _, id := range dirtyOrder(b.table) {
							order = append(order, b.table.entries[id])
						}
						writebackPass(p, b, batch)
						step = fmt.Sprintf("writebackPass(%d)", batch)
						// The pass visits the scan order's first batch
						// entries, and only those.
						for k, e := range order {
							if visited := !e.dirty; visited != (k < batch) {
								t.Fatalf("step %d %s: entry %d at %d of the scan order visited=%v", i, step, e.id, k, visited)
							}
						}
					default:
						step = "FailSSD"
						failSSD(p, b)
					}
					b.trk.prevLBN = 0 // keep candidates' returns positive
					checkDirty(t, b, fmt.Sprintf("step %d %s", i, step))
				}
				flush(p, b)
				checkDirty(t, b, "flush")
				if b.DirtySectors() != 0 {
					t.Fatalf("%d dirty sectors after Flush", b.DirtySectors())
				}
			})
			if b.Stats().Evictions == 0 && !b.SSDFailed() {
				t.Error("sequence never evicted: the capacity is too generous for the property to cover eviction")
			}
		})
	}
}

// TestDirtyAccountingUnderConcurrency checks the same invariants with the
// table changing under in-flight writebacks: eight foreground processes
// overwrite the range the eager maintenance daemon is writing back, so
// entries are trimmed, split, evicted and superseded between an
// eviction's writeback and its drop. Every 10 steps the writers meet at a
// barrier and all write one fresh extent at the same instant: the
// admissions overlap in virtual time, each later one superseding the one
// before (BTIO at medium scale gets there; this is its miniature), and
// the idle gap that follows has the daemon write the survivor back.
func TestDirtyAccountingUnderConcurrency(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) {
		c.SSDCapacity = 64 * device.SectorSize
		c.WritebackMinDirty = 0 // write back at every idle check
	})
	// The tracer names each admission by its request id: a barrier
	// round's writes carry the round's step number.
	tr := obs.NewXTracer("sim", 0)
	b.SetObs(nil, tr, 0)
	const (
		base    = 1 << 26
		barrier = base + 1024 // above every other write's range
		writers = 8
	)
	meet := sim.NewBarrier(e, writers)
	left, joined := writers, func() {}
	for w := 0; w < writers; w++ {
		rng := sim.NewRNG(uint64(100 + w))
		e.Go(fmt.Sprint("writer", w), func(p *sim.Proc) {
			for i := 0; i < 150; i++ {
				lbn := base + int64(rng.Range(0, 48))*8 + int64(rng.Range(0, 8))
				n := int64(rng.Range(1, 21))
				switch {
				case i%10 == 9:
					meet.Wait(p)
					r := frag(device.Write, barrier+int64(i)*32, 4)
					r.ID = int64(i)
					serve(p, b, r)
				case rng.Range(0, 10) == 0:
					serve(p, b, large(device.Write, lbn, 4*n))
				default:
					serve(p, b, frag(device.Write, lbn, n))
				}
				b.trk.prevLBN = 0
				checkDirty(t, b, fmt.Sprintf("writer step %d", i))
				p.Sleep(rng.Duration(0, 6*sim.Millisecond)) // idle gaps let the daemon in
			}
			if left--; left == 0 {
				joined()
			}
		})
	}
	runSim(t, e, func(p *sim.Proc) {
		p.Call(func(done func()) { joined = done }) // the writers run for a while
		flush(p, b)
		checkDirty(t, b, "flush")
	})
	if snap := b.Snapshot(); snap.DirtySectors != 0 {
		t.Fatalf("%d dirty sectors mapped after Flush", snap.DirtySectors)
	}
	// Barrier rounds in which at least two same-instant admissions of
	// the round's extent landed.
	landed := map[uint64]int{}
	for _, ev := range tr.Events() {
		if ev.Trace != 0 && strings.HasPrefix(ev.Name, "ssd-offload") {
			landed[ev.Trace]++
		}
	}
	overlapped := 0
	for _, n := range landed {
		if n >= 2 {
			overlapped++
		}
	}
	if b.Stats().WritebackBytes == 0 || b.Stats().Evictions == 0 || overlapped == 0 {
		t.Errorf("scenario too tame: writeback %d bytes, %d evictions, %d rounds with overlapping admissions",
			b.Stats().WritebackBytes, b.Stats().Evictions, overlapped)
	}
}

// TestSameInstantAdmissionsLeaveOneMapping has eight processes write one
// 4-sector fragment extent at the same instant. Every admission lands,
// each superseding the one before, so the table keeps one mapping: 4
// dirty sectors and 2 KiB of usage for 2 KiB of data.
func TestSameInstantAdmissionsLeaveOneMapping(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) { c.IdleCheck = sim.Second })
	const writers = 8
	meet := sim.NewBarrier(e, writers)
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		p.Call(func(joined func()) {
			left := writers
			for w := 0; w < writers; w++ {
				e.Go(fmt.Sprint("writer", w), func(p *sim.Proc) {
					meet.Wait(p)
					serve(p, b, frag(device.Write, 1<<27, 4))
					if left--; left == 0 {
						joined()
					}
				})
			}
		})
	})
	if got := b.Stats().Admissions[ClassFragment]; got != writers {
		t.Fatalf("%d of %d writes admitted", got, writers)
	}
	snap := b.Snapshot()
	if len(snap.Extents) != 1 || snap.DirtySectors != 4 || b.DirtySectors() != 4 {
		t.Fatalf("%d mappings, %d (running %d) dirty sectors; want 1 and 4: %+v",
			len(snap.Extents), snap.DirtySectors, b.DirtySectors(), snap.Extents)
	}
	if random, fragment := b.Usage(); random != 0 || fragment != 2<<10 {
		t.Fatalf("usage random %d fragment %d, want 0 and 2 KiB", random, fragment)
	}
}

// BenchmarkDirtyAccounting times what every maintenance check evaluates —
// DirtySectors and the whole maintenanceDue predicate — and the
// writeback cursor, over a clean table and a 10× larger one. Neither
// does per-entry work, so ns/op must not grow with the table (the scan
// they replaced cost ~1 ns per entry per tick per server).
func BenchmarkDirtyAccounting(b *testing.B) {
	for _, entries := range []int{1_000, 10_000} {
		e := sim.New()
		// IdleAfter 0: the devices count as idle at time zero, so the
		// predicate runs through to the dirty-pressure comparison.
		br, _ := testBridge(e, nil)
		br.idleAfter = 0
		if !br.idle(e.Now()) {
			b.Fatal("bridge not idle: the tick would stop before the dirty check")
		}
		for i := 0; i < entries; i++ {
			br.table.insert(&entry{lbn: int64(i) * 16, sectors: 8, spanAt: int64(i) * 8})
		}
		br.table.insert(&entry{lbn: int64(entries) * 16, sectors: 8, dirty: true})
		var sink int64
		b.Run(fmt.Sprintf("DirtySectors/entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += br.DirtySectors()
			}
		})
		b.Run(fmt.Sprintf("IdleTick/entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if br.maintenanceDue() {
					sink++
				}
			}
		})
		b.Run(fmt.Sprintf("FirstDirty/entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += br.table.firstDirty().lbn
			}
		})
		_ = sink
	}
}

// TestStagingNeverSupersedesNewerWrite stages a read-missed extent while
// a write of the same extent is admitted during the staging write: the
// dirty data stays cached, and the older staged copy is dropped.
func TestStagingNeverSupersedesNewerWrite(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) { c.IdleCheck = sim.Second })
	const lbn = 1 << 27
	runSim(t, e, func(p *sim.Proc) {
		driveT(p, b)
		serve(p, b, frag(device.Read, lbn, 4)) // a miss worth staging
		b.trk.prevLBN = 0
		if len(b.stage) != 1 {
			t.Fatalf("%d items queued for staging, want 1", len(b.stage))
		}
		it := b.stage[0]
		b.stage = b.stage[:0]
		p.Call(func(joined func()) {
			left := 2
			join := func() {
				if left--; left == 0 {
					joined()
				}
			}
			// Same instant, writer first: its SSD write completes first.
			e.Go("writer", func(p *sim.Proc) { serve(p, b, frag(device.Write, lbn, 4)); join() })
			e.Go("stager", func(p *sim.Proc) { stageOne(p, b, it); join() })
		})
	})
	if b.Stats().SSDWriteBytes == 0 || b.DirtySectors() != 4 {
		t.Fatalf("written %d bytes to the SSD, %d dirty sectors cached; want the 4 written", b.Stats().SSDWriteBytes, b.DirtySectors())
	}
	if b.alloc.Used() != 5 {
		t.Fatalf("%d sectors allocated, want the write's 5", b.alloc.Used())
	}
	if snap := b.Snapshot(); len(snap.Extents) != 1 || !snap.Extents[0].Dirty {
		t.Fatalf("mapping %+v, want the write's one dirty extent", snap.Extents)
	}
}
