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
	// jClean marks an extent written back to the disk.
	jClean
	// jDrop records an invalidation or eviction of a disk-extent range.
	jDrop
)

// journalRecord is one persisted table mutation.
type journalRecord struct {
	op      journalOp
	lbn     int64
	sectors int64
	ssdLBN  int64
	dirty   bool
	class   Class
	ret     float64
	spanAt  int64
	spanN   int64
}

// journal accumulates records; a real system would write each record
// into the log stream (the TablePersist sector).
type journal struct {
	records []journalRecord
}

func (j *journal) insert(e *entry) {
	j.records = append(j.records, journalRecord{
		op: jInsert, lbn: e.lbn, sectors: e.sectors, ssdLBN: e.ssdLBN,
		dirty: e.dirty, class: e.class, ret: e.ret, spanAt: e.spanAt, spanN: e.spanN,
	})
}

func (j *journal) clean(e *entry) {
	j.records = append(j.records, journalRecord{op: jClean, lbn: e.lbn, sectors: e.sectors})
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

// Recover replays the journal into a fresh extent map — the crash
// recovery path. The rebuilt state must match the live table; tests
// assert this invariant after arbitrary workloads.
func (j *journal) Recover() RecoveredState {
	var m extentMap
	for _, r := range j.records {
		switch r.op {
		case jInsert:
			m.punch(r.lbn, r.sectors, func(e *entry) {})
			e := &entry{
				lbn: r.lbn, sectors: r.sectors, ssdLBN: r.ssdLBN,
				dirty: r.dirty, class: r.class, ret: r.ret,
				spanAt: r.spanAt, spanN: r.spanN,
			}
			m.insert(e)
		case jClean:
			lo, hi := m.overlapRange(r.lbn, r.sectors)
			for i := lo; i < hi; i++ {
				m.markClean(m.entries[i])
			}
		case jDrop:
			m.punch(r.lbn, r.sectors, func(e *entry) {})
		}
	}
	// The replayed map's own running total: a recovered server resumes
	// dirty-pressure accounting from it.
	out := RecoveredState{DirtySectors: m.dirtySectors}
	for _, e := range m.entries {
		out.Extents = append(out.Extents, RecoveredExtent{
			LBN: e.lbn, Sectors: e.sectors, SSDLBN: e.ssdLBN, Dirty: e.dirty, Class: e.class,
		})
	}
	return out
}

// Snapshot returns the live table in the same form, for comparison with
// a recovery. Its DirtySectors is summed entry by entry — the reference
// the running totals are tested against.
func (b *Bridge) Snapshot() RecoveredState {
	var out RecoveredState
	for _, e := range b.table.entries {
		out.Extents = append(out.Extents, RecoveredExtent{
			LBN: e.lbn, Sectors: e.sectors, SSDLBN: e.ssdLBN, Dirty: e.dirty, Class: e.class,
		})
		if e.dirty {
			out.DirtySectors += e.sectors
		}
	}
	return out
}

// Recover rebuilds the cache state from the bridge's journal, as a
// post-crash server would.
func (b *Bridge) Recover() RecoveredState { return b.journal.Recover() }

// JournalRecords returns the number of journal records written.
func (b *Bridge) JournalRecords() int { return b.journal.Len() }
