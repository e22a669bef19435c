package core

// This file implements the mapping table's crash consistency: "To ensure
// reliability, the dirty entries of the mapping table are immediately
// updated on the SSD with the write requests to the SSD" (Section II-B).
// Every cache mutation appends a journal record alongside the data in the
// SSD log (the extra sector writeToSSD/stageOne budget for); after a
// server crash the table is rebuilt by replaying the journal, so dirty
// data that only exists in the SSD is never lost.
//
// The simulator does not persist bytes, so the journal is kept as an
// in-memory record sequence with the same information a real
// implementation would serialize; Snapshot/Recover exercise the exact
// rebuild logic.

// journalOp is the kind of one journal record.
type journalOp uint8

const (
	// jInsert records a new mapping (admission or staging).
	jInsert journalOp = iota
	// jClean marks an entry written back to the disk.
	jClean
	// jEvict records the eviction of what is left of an entry.
	jEvict
	// jDrop records an invalidation of a disk-extent range.
	jDrop
)

// journalRecord is one persisted table mutation. An insert carries the
// whole entry; a clean or an evict names it by id (replay assigns ids
// in insert order, as the live table did); a drop carries its range.
type journalRecord struct {
	op            journalOp
	dirty         bool
	id            uint64
	lbn, sectors  int64
	class         Class
	ret           float64
	spanAt, spanN int64
}

// journal accumulates records; a real system would write each record
// into the log stream (the TablePersist sector).
type journal struct {
	records []journalRecord
}

func (j *journal) insert(e *entry) {
	j.records = append(j.records, journalRecord{
		op: jInsert, id: e.id, lbn: e.lbn, sectors: e.sectors,
		dirty: e.dirty, class: e.class, ret: e.ret, spanAt: e.spanAt, spanN: e.spanN,
	})
}

// mark records a clean or an evict of e.
func (j *journal) mark(op journalOp, e *entry) {
	j.records = append(j.records, journalRecord{op: op, id: e.id})
}

func (j *journal) drop(lbn, sectors int64) {
	j.records = append(j.records, journalRecord{op: jDrop, lbn: lbn, sectors: sectors})
}

// Len returns the number of journal records (for tests and stats).
func (j *journal) Len() int { return len(j.records) }

// RecoveredState is the rebuilt cache image after journal replay.
type RecoveredState struct {
	// Extents is the rebuilt mapping table in LBN order.
	Extents []RecoveredExtent
	// DirtySectors counts sectors whose only copy is in the SSD.
	DirtySectors int64
}

// RecoveredExtent is one rebuilt mapping entry.
type RecoveredExtent struct {
	LBN     int64
	Sectors int64
	SSDLBN  int64
	Dirty   bool
	Class   Class
}

// Recover replays the journal into a fresh table — the crash recovery
// path. The rebuilt state must match the live table; tests assert this
// invariant after arbitrary workloads.
func (j *journal) Recover() RecoveredState {
	t := newTable(nil)
	for _, r := range j.records {
		switch r.op {
		case jInsert:
			t.insert(&entry{
				lbn: r.lbn, sectors: r.sectors, dirty: r.dirty,
				class: r.class, ret: r.ret, spanAt: r.spanAt, spanN: r.spanN,
			})
		case jClean:
			t.markClean(t.entries[r.id])
		case jEvict:
			t.evict(t.entries[r.id])
		case jDrop:
			t.punch(r.lbn, r.sectors)
		}
	}
	// The replayed table's own running total: a recovered server
	// resumes dirty-pressure accounting from it.
	out := t.state()
	out.DirtySectors = t.dirtySectors
	return out
}

// state returns the table's extents in recovered form.
func (t *table) state() RecoveredState {
	var out RecoveredState
	for _, x := range t.list {
		e := t.entries[x.Seg]
		out.Extents = append(out.Extents, RecoveredExtent{
			LBN: x.Off, Sectors: x.N, SSDLBN: x.Pos, Dirty: e.dirty, Class: e.class,
		})
	}
	return out
}

// Snapshot returns the live table in the same form, for comparison with
// a recovery. Its DirtySectors is summed extent by extent — the
// reference the running totals are tested against.
func (b *Bridge) Snapshot() RecoveredState {
	out := b.table.state()
	for _, x := range out.Extents {
		if x.Dirty {
			out.DirtySectors += x.Sectors
		}
	}
	return out
}

// Recover rebuilds the cache state from the bridge's journal, as a
// post-crash server would.
func (b *Bridge) Recover() RecoveredState { return b.journal.Recover() }

// JournalRecords returns the number of journal records written.
func (b *Bridge) JournalRecords() int { return b.journal.Len() }
