package core

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// scanDirty is the full scan the running totals replaced: the dirty
// sector sum and the lowest-LBN dirty entry, entry by entry.
func scanDirty(m *extentMap) (sum int64, first *entry) {
	for _, e := range m.entries {
		if e.dirty {
			sum += e.sectors
			if first == nil {
				first = e
			}
		}
	}
	return sum, first
}

// checkDirty asserts the O(1) accounting against the scan.
func checkDirty(t *testing.T, b *Bridge, step string) {
	t.Helper()
	sum, first := scanDirty(&b.table)
	if got := b.DirtySectors(); got != sum {
		t.Fatalf("%s: DirtySectors() = %d, scan says %d", step, got, sum)
	}
	if got := b.table.firstDirty(); got != first {
		t.Fatalf("%s: firstDirty() = %+v, scan says %+v", step, got, first)
	}
}

// dirtyLBNs lists the table's dirty extents in table (ascending LBN)
// order.
func dirtyLBNs(m *extentMap) []int64 {
	var out []int64
	for _, e := range m.entries {
		if e.dirty {
			out = append(out, e.lbn)
		}
	}
	return out
}

// cleanedSince lists the LBNs of the journal's clean records from index
// from on: the order in which writeback visited extents.
func cleanedSince(j *journal, from int) []int64 {
	var out []int64
	for _, r := range j.records[from:] {
		if r.op == jClean {
			out = append(out, r.lbn)
		}
	}
	return out
}

// TestDirtyAccountingProperty drives random admit / overwrite / bulk
// write / read / writeback / evict / SSD-failure sequences against a
// small bridge and asserts after every step that the running dirty total
// and the firstDirty cursor agree with a full scan of the table, that a
// writeback pass visits exactly the dirty extents the scan lists, in
// ascending LBN order, and that a journal replay arrives at the same
// total.
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
						b.Serve(p, frag(device.Write, lbn, n))
					case k < 60:
						step = fmt.Sprintf("random write [%d,+%d)", lbn, n)
						b.Serve(p, random(device.Write, lbn, n))
					case k < 70:
						// Not a candidate: takes the disk path and punches
						// whatever it overlaps out of the cache.
						step = fmt.Sprintf("bulk write [%d,+%d)", lbn, 4*n)
						b.Serve(p, large(device.Write, lbn, 4*n))
					case k < 82:
						step = fmt.Sprintf("read [%d,+%d)", lbn, n)
						b.Serve(p, frag(device.Read, lbn, n))
					case k < 90:
						for len(b.stage) > 0 {
							it := b.stage[0]
							b.stage = b.stage[1:]
							b.stageOne(p, it)
						}
						step = "stage"
					case k < 99:
						batch := int(rng.Range(1, 6))
						want := dirtyLBNs(&b.table)
						want = want[:min(batch, len(want))]
						from := b.journal.Len()
						b.writebackPass(p, batch)
						step = fmt.Sprintf("writebackPass(%d)", batch)
						if got := cleanedSince(&b.journal, from); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d %s visited %v, the scan order is %v", i, step, got, want)
						}
					default:
						step = "FailSSD"
						b.FailSSD(p)
					}
					b.trk.prevLBN = 0 // keep candidates' returns positive
					checkDirty(t, b, fmt.Sprintf("step %d %s", i, step))
					if !statesEqual(b.Snapshot(), b.Recover()) {
						t.Fatalf("step %d %s: journal replay diverged from the live table", i, step)
					}
				}
				b.Flush(p)
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
// entries are trimmed, split, evicted and dropped between a writeback's
// SSD read and its markClean. Every 30 steps the writers meet at a
// barrier and all write one fresh extent at the same instant: the
// admissions overlap in virtual time and all land in the table at one
// lbn — the state in which indexOf finds only the first (BTIO at medium
// scale gets there; this is its miniature) — and the idle gap that
// follows has the daemon write the twins back.
func TestDirtyAccountingUnderConcurrency(t *testing.T) {
	e := sim.New()
	b, _ := testBridge(e, func(c *Config) {
		c.SSDCapacity = 192 * device.SectorSize
		c.WritebackMinDirty = 0 // write back at every idle tick
	})
	const (
		base    = 1 << 26
		writers = 8
	)
	twins := 0
	meet := sim.NewBarrier(e, writers)
	done := sim.NewCounter(e, writers)
	for w := 0; w < writers; w++ {
		rng := sim.NewRNG(uint64(100 + w))
		e.Go(fmt.Sprint("writer", w), func(p *sim.Proc) {
			for i := 0; i < 150; i++ {
				lbn := base + int64(rng.Range(0, 48))*8 + int64(rng.Range(0, 8))
				n := int64(rng.Range(1, 21))
				switch {
				case i%30 == 29:
					meet.Wait(p)
					b.Serve(p, frag(device.Write, base+1024+int64(i)*32, 4))
				case rng.Range(0, 10) == 0:
					b.Serve(p, large(device.Write, lbn, 4*n))
				default:
					b.Serve(p, frag(device.Write, lbn, n))
				}
				b.trk.prevLBN = 0
				checkDirty(t, b, fmt.Sprintf("writer step %d", i))
				for j := 1; j < len(b.table.entries); j++ {
					if b.table.entries[j].lbn == b.table.entries[j-1].lbn {
						twins++
					}
				}
				p.Sleep(rng.Duration(0, 6*sim.Millisecond)) // idle gaps let the daemon in
			}
			done.Done()
		})
	}
	runSim(t, e, func(p *sim.Proc) {
		done.Wait(p)
		b.Flush(p)
		checkDirty(t, b, "flush")
	})
	if b.Stats().WritebackBytes == 0 || b.Stats().Evictions == 0 || twins == 0 {
		t.Errorf("scenario too tame: writeback %d bytes, %d evictions, %d same-lbn pairs seen",
			b.Stats().WritebackBytes, b.Stats().Evictions, twins)
	}
}

// BenchmarkDirtyAccounting times what every maintenance tick evaluates —
// DirtySectors and the whole maintenanceDue predicate — and the
// writeback cursor, over a clean table and a 10× larger one. Neither
// does per-entry work, so ns/op must not grow with the table (the scan
// they replaced cost ~1 ns per entry per tick per server).
func BenchmarkDirtyAccounting(b *testing.B) {
	for _, entries := range []int{1_000, 10_000} {
		e := sim.New()
		// IdleAfter 0: the devices count as idle at time zero, so the
		// predicate runs through to the dirty-pressure comparison.
		br, _ := testBridge(e, func(c *Config) { c.IdleAfter = 0 })
		if !br.idle(e.Now()) {
			b.Fatal("bridge not idle: the tick would stop before the dirty check")
		}
		for i := 0; i < entries; i++ {
			br.table.insert(&entry{lbn: int64(i) * 16, sectors: 8, ssdLBN: int64(i) * 8})
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
