// Package plfs implements a miniature PLFS (Bent et al., SC'09), the
// log-structured checkpoint file system the paper's related work compares
// against: every rank's writes to a shared logical file are appended to a
// per-rank log object, with an index mapping logical extents to log
// positions. Writes become perfectly sequential regardless of alignment —
// the software answer to the fragment problem — but reads of the logical
// file scatter across the rank logs, losing the spatial locality iBridge
// preserves ("this approach may not be effective for regular workloads,
// as spatial locality is largely lost in the log file system").
//
// The implementation layers on the simulated parallel file system: each
// rank log is a pfs file, so log appends stripe over the data servers
// like PLFS data droppings do.
package plfs

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/pfs"
)

// Mount is one PLFS container: a logical file backed by per-rank logs.
type Mount struct {
	// client reads the logs; writers[r] appends to rank r's log, tagged
	// with origin r+1.
	client  *pfs.Client
	writers []*pfs.Client
	size    int64
	ranks   int

	logs   []*pfs.File
	logPos []int64
	index  []indexEntry // sorted by logical offset, non-overlapping
}

// indexEntry maps a logical extent to a position in one rank's log.
type indexEntry struct {
	off    int64 // logical offset
	length int64
	rank   int
	logOff int64
}

func (e indexEntry) end() int64 { return e.off + e.length }

// Create builds a PLFS container of the given logical size for ranks
// writers. Each rank log is provisioned with capacity/ranks plus slack
// (PLFS logs grow with rewrites; the benchmarks write each byte once).
func Create(fs *pfs.FileSystem, name string, size int64, ranks int) (*Mount, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("plfs: ranks must be positive")
	}
	m := &Mount{
		client: pfs.NewClient(fs),
		size:   size,
		ranks:  ranks,
		logPos: make([]int64, ranks),
	}
	perLog := size/int64(ranks) + size/4 + (64 << 10)
	for r := 0; r < ranks; r++ {
		f, err := fs.Create(fmt.Sprintf("%s.plfs.log.%d", name, r), perLog)
		if err != nil {
			return nil, err
		}
		m.logs = append(m.logs, f)
		m.writers = append(m.writers, m.client.WithOrigin(int32(r+1)))
	}
	return m, nil
}

// Size returns the logical file size.
func (m *Mount) Size() int64 { return m.size }

// IndexEntries returns the number of live index entries (the metadata
// cost PLFS pays; the paper's criticism includes index growth).
func (m *Mount) IndexEntries() int { return len(m.index) }

// WriteAt appends a write by rank at logical offset off to the rank's
// log, records the index entry, and runs done once the append has
// completed. The log append is sequential no matter how unaligned the
// logical write is — PLFS's whole point. The log position and the index
// entry are taken at once, so a rank may have several appends in
// flight. On an error nothing is issued and done does not run.
func (m *Mount) WriteAt(rank int, off, length int64, done func()) error {
	if rank < 0 || rank >= m.ranks {
		return fmt.Errorf("plfs: rank %d out of range", rank)
	}
	if off < 0 || off+length > m.size {
		return fmt.Errorf("plfs: write [%d,+%d) outside logical size %d", off, length, m.size)
	}
	if length == 0 {
		done()
		return nil
	}
	logOff := m.logPos[rank]
	if logOff+length > m.logs[rank].Size {
		return fmt.Errorf("plfs: rank %d log full", rank)
	}
	m.logPos[rank] += length
	m.insert(indexEntry{off: off, length: length, rank: rank, logOff: logOff})
	m.writers[rank].Start(m.logs[rank], device.Write, logOff, length, done)
	return nil
}

// insert punches the logical range out of the index and adds the entry,
// keeping the index sorted and non-overlapping (later writes win).
func (m *Mount) insert(e indexEntry) {
	m.punch(e.off, e.length)
	i := sort.Search(len(m.index), func(i int) bool { return m.index[i].off > e.off })
	m.index = append(m.index, indexEntry{})
	copy(m.index[i+1:], m.index[i:])
	m.index[i] = e
}

// punch removes [off, off+n) from the index, splitting entries that
// partially overlap.
func (m *Mount) punch(off, n int64) {
	end := off + n
	var out []indexEntry
	for _, e := range m.index {
		if e.end() <= off || e.off >= end {
			out = append(out, e)
			continue
		}
		if e.off < off {
			out = append(out, indexEntry{off: e.off, length: off - e.off, rank: e.rank, logOff: e.logOff})
		}
		if e.end() > end {
			cut := end - e.off
			out = append(out, indexEntry{off: end, length: e.end() - end, rank: e.rank, logOff: e.logOff + cut})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	m.index = out
}

// ReadAt reads the logical extent [off, off+length) and runs done once
// it has completed: the index resolves it into (possibly many) log
// pieces, read one after another from their rank logs. Unwritten gaps
// read as zeros and cost no I/O; a read of no log piece runs done
// inline. Returns the number of log pieces touched — the locality loss
// the paper points at. On an error nothing is issued and done does not
// run.
func (m *Mount) ReadAt(off, length int64, done func()) (pieces int, err error) {
	if off < 0 || off+length > m.size {
		return 0, fmt.Errorf("plfs: read [%d,+%d) outside logical size %d", off, length, m.size)
	}
	i := sort.Search(len(m.index), func(i int) bool { return m.index[i].end() > off })
	end := off + length
	var parts []indexEntry
	for ; i < len(m.index) && m.index[i].off < end; i++ {
		e := m.index[i]
		from, to := max(e.off, off), min(e.end(), end)
		parts = append(parts, indexEntry{off: from, length: to - from, rank: e.rank, logOff: e.logOff + (from - e.off)})
	}
	pieces = len(parts)
	var next func()
	next = func() {
		if len(parts) == 0 {
			done()
			return
		}
		e := parts[0]
		parts = parts[1:]
		m.client.Start(m.logs[e.rank], device.Read, e.logOff, e.length, next)
	}
	next()
	return pieces, nil
}
