package pfsnet

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/extent"
	"repro/internal/obs"
)

// chunkBytes is the size of one fragment-log chunk. Fragments are a few
// KiB (the client flags sub-requests under its thresholds, 20 KB in the
// paper's setup), so a chunk holds hundreds of them and an append
// almost never allocates.
const chunkBytes = 1 << 20

// bridge is the data server's fragment log — the functional analogue of
// iBridge's SSD cache: flagged writes are appended to in-memory chunks
// and indexed per file; reads overlay the indexed bytes on what the
// object store returns; a drain writes them back.
//
// The log is a set of fixed-size chunks whose bytes never move or
// change once appended, so a reader may keep referring to them after
// dropping logMu. Each chunk counts the bytes the index still maps into
// it and is dropped when it is sealed and that count reaches 0: the
// heap follows live bytes, not bytes ever appended.
//
// There is deliberately no capacity and no eviction here: which
// fragment to give up is the paper's policy (per-class LRU under the
// Eq. 1–3 partition, ROADMAP item 1a), and this type is where it will
// plug in.
type bridge struct {
	enabled bool // false: write always declines; the index stays empty

	// logMu guards the index, the chunk set and the drain state. No
	// object-store call is ever made with it held.
	logMu   sync.Mutex
	files   map[uint64]*extent.List // per-file fragment index; Seg is a chunk sequence
	chunks  map[uint64]*chunk
	open    *chunk // the chunk appends go to; nil until the first write
	nextSeq uint64
	onDead  extent.Dead // b.deadLocked, bound once

	// One drain runs at a time. inflight is its victim list, sorted by
	// (file, offset): the ranges whose write-back may still be in the
	// store's hands. drained is signalled when it finishes.
	draining bool
	inflight []victim
	drained  *sync.Cond

	// down is set (under logMu) when the SSD device fails: the log
	// takes no more writes. Read lock-free by SSDFailed.
	down atomic.Bool

	// Mirrors of the log's size, written under logMu and read lock-free
	// by Stats and the registry gauges.
	liveBytes atomic.Int64 // bytes the index maps
	heldBytes atomic.Int64 // bytes appended into chunks not yet dropped
	extents   atomic.Int64 // index entries across all files
}

// chunk is one append-only piece of the fragment log.
type chunk struct {
	seq    uint64
	buf    []byte // len = bytes appended; the backing array is allocated once
	live   int64  // bytes of buf the index still maps
	sealed bool   // takes no more appends; dropped once live is 0
}

// victim is one mapped extent picked for write-back, with the (immutable)
// log bytes it pointed at when it was picked.
type victim struct {
	file uint64
	ext  extent.Extent
	data []byte
}

// patch is one piece of a read's overlay snapshot: log bytes that belong
// at dst in the reply.
type patch struct {
	dst int64
	src []byte
}

func newBridge(enabled bool) *bridge {
	b := &bridge{
		enabled: enabled,
		files:   make(map[uint64]*extent.List),
		chunks:  make(map[uint64]*chunk),
	}
	b.onDead = b.deadLocked
	b.drained = sync.NewCond(&b.logMu)
	return b
}

// register publishes the log's size gauges in reg under prefix. They
// are read from the atomics the bridge keeps anyway, at scrape time.
func (b *bridge) register(reg *obs.Registry, prefix string) {
	reg.RegisterFunc(prefix+"live_bytes", func() float64 { return float64(b.liveBytes.Load()) })
	reg.RegisterFunc(prefix+"held_bytes", func() float64 { return float64(b.heldBytes.Load()) })
	reg.RegisterFunc(prefix+"extents", func() float64 { return float64(b.extents.Load()) })
}

// write appends one flagged write to the log and maps it, trimming or
// splitting whatever older fragments it overlaps. It reports false —
// the caller takes the direct path — when the bridge is off or its
// device has failed. An empty write maps nothing.
func (b *bridge) write(file uint64, off int64, data []byte) bool {
	if !b.enabled {
		return false
	}
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if b.down.Load() {
		return false
	}
	n := int64(len(data))
	if n == 0 {
		return true
	}
	c := b.chunkForLocked(len(data))
	pos := int64(len(c.buf))
	c.buf = append(c.buf, data...) // within cap: logged bytes never move
	c.live += n
	b.liveBytes.Add(n)
	b.heldBytes.Add(n)
	l := b.files[file]
	if l == nil {
		l = new(extent.List)
		b.files[file] = l
	}
	before := len(*l)
	l.Insert(extent.Extent{Off: off, N: n, Seg: c.seq, Pos: pos}, b.onDead)
	b.extents.Add(int64(len(*l) - before))
	return true
}

// chunkForLocked returns the chunk an n-byte append goes to: the open
// one while it has room, a fresh one otherwise, or a sealed chunk of
// its own for a payload larger than a chunk.
func (b *bridge) chunkForLocked(n int) *chunk {
	if c := b.open; c != nil && len(c.buf)+n <= cap(c.buf) {
		return c
	}
	b.nextSeq++
	c := &chunk{seq: b.nextSeq, buf: make([]byte, 0, max(n, chunkBytes))}
	b.chunks[c.seq] = c
	if n > chunkBytes {
		c.sealed = true
		return c
	}
	b.sealOpenLocked()
	b.open = c
	return c
}

// sealOpenLocked closes the open chunk to appends, dropping it at once
// when nothing in it is live.
func (b *bridge) sealOpenLocked() {
	c := b.open
	if c == nil {
		return
	}
	b.open = nil
	c.sealed = true
	if c.live == 0 {
		b.dropLocked(c)
	}
}

func (b *bridge) dropLocked(c *chunk) {
	delete(b.chunks, c.seq)
	b.heldBytes.Add(-int64(len(c.buf)))
}

// deadLocked is the index's dead callback: n bytes of chunk seg are no
// longer mapped.
func (b *bridge) deadLocked(seg uint64, n int64) {
	c := b.chunks[seg]
	c.live -= n
	b.liveBytes.Add(-n)
	if c.live == 0 && c.sealed {
		b.dropLocked(c)
	}
}

// unmapLocked punches [off, off+n) out of file's index.
func (b *bridge) unmapLocked(file uint64, off, n int64) {
	l := b.files[file]
	if l == nil {
		return
	}
	before := len(*l)
	l.Punch(off, n, b.onDead)
	b.extents.Add(int64(len(*l) - before))
	if len(*l) == 0 {
		delete(b.files, file)
	}
}

// punch is the direct-path write's half of the protocol: the caller is
// about to write [off, off+n) of file straight to the store, which
// supersedes whatever the log maps there. If a drain has a write-back
// of that range in flight, punch first waits for it — otherwise the
// older bytes could land in the store after the caller's newer ones.
func (b *bridge) punch(file uint64, off, n int64) {
	if !b.enabled || n <= 0 {
		return
	}
	b.logMu.Lock()
	for b.inflightLocked(file, off, n) {
		b.drained.Wait()
	}
	b.unmapLocked(file, off, n)
	b.logMu.Unlock()
}

// inflightLocked reports whether the running drain (if any) picked a
// victim overlapping [off, off+n) of file.
func (b *bridge) inflightLocked(file uint64, off, n int64) bool {
	vs := b.inflight
	i := sort.Search(len(vs), func(i int) bool {
		return vs[i].file > file || (vs[i].file == file && vs[i].ext.Off+vs[i].ext.N > off)
	})
	return i < len(vs) && vs[i].file == file && vs[i].ext.Off < off+n
}

// overlay appends to into a snapshot of the log bytes mapped inside
// [off, off+n) of file. A read takes it *before* reading the store and
// applies it after: a fragment acknowledged before the read began is
// then either in the snapshot or already written back — never lost to a
// drain that unmaps it between the two steps.
func (b *bridge) overlay(file uint64, off, n int64, into []patch) []patch {
	if !b.enabled {
		return into
	}
	b.logMu.Lock()
	if l := b.files[file]; l != nil {
		l.Each(off, n, func(e extent.Extent, dst int64) {
			into = append(into, patch{dst, b.chunks[e.Seg].buf[e.Pos : e.Pos+e.N]})
		})
	}
	b.logMu.Unlock()
	return into
}

// drain writes the fragments mapped for file (for every file when all
// is set) back to store and unmaps them, returning the bytes written.
// It is the one write-back routine: opFlush, FlushLog/Close and the
// SSD-failure drain all come here.
//
// Victims are picked under logMu, written with logMu released, and then
// only the index entries that still point at the bytes written are
// unmapped — a fragment that overwrote a victim meanwhile stays mapped
// and keeps overlaying the (now stale) store bytes. Drains run one at a
// time, so when drain returns every fragment acknowledged before it was
// called is in the store.
func (b *bridge) drain(store ObjectStore, file uint64, all bool) (int64, error) {
	victims := b.beginDrain(file, all)
	var err error
	done := 0
	for ; done < len(victims); done++ {
		v := &victims[done]
		if err = store.WriteAt(v.file, v.ext.Off, v.data); err != nil {
			break
		}
	}
	return b.endDrain(victims[:done]), err
}

// beginDrain waits for its turn and publishes the victim list.
func (b *bridge) beginDrain(file uint64, all bool) []victim {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	for b.draining {
		b.drained.Wait()
	}
	b.draining = true
	var ids []uint64
	if all {
		ids = make([]uint64, 0, len(b.files))
		for id := range b.files {
			ids = append(ids, id)
		}
		slices.Sort(ids)
	} else if b.files[file] != nil {
		ids = []uint64{file}
	}
	n := 0
	for _, id := range ids {
		n += len(*b.files[id])
	}
	victims := make([]victim, 0, n)
	for _, id := range ids {
		for _, e := range *b.files[id] {
			victims = append(victims, victim{id, e, b.chunks[e.Seg].buf[e.Pos : e.Pos+e.N]})
		}
	}
	b.inflight = victims
	return victims
}

// endDrain unmaps what written still maps, ends the drain's turn and
// returns the bytes written.
func (b *bridge) endDrain(written []victim) int64 {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	var flushed int64
	var still []extent.Extent
	// Back to front: removing from the tail of a sorted list moves
	// nothing, so unmapping a whole file is linear, not quadratic.
	for i := len(written) - 1; i >= 0; i-- {
		v := &written[i]
		flushed += v.ext.N
		l := b.files[v.file]
		if l == nil {
			continue
		}
		still = l.PointingAt(v.ext.Off, v.ext.N, v.ext.Seg, v.ext.Pos, still[:0])
		for k := len(still) - 1; k >= 0; k-- {
			b.unmapLocked(v.file, still[k].Off, still[k].N)
		}
	}
	// A drain that left the open chunk with nothing live gives it back
	// too, so a fully flushed log holds no memory.
	if c := b.open; c != nil && c.live == 0 {
		b.sealOpenLocked()
	}
	b.inflight = nil
	b.draining = false
	b.drained.Broadcast()
	return flushed
}

// fail marks the log's device failed; it reports whether this call was
// the one that did. No write is mapped after it returns, so the drain
// the caller runs next empties the log for good.
func (b *bridge) fail() bool {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	return !b.down.Swap(true)
}
