package logstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/extent"
)

// Checkpoint file format. The checkpoint is the serialized mapping
// table plus the replay cursor: generation, active segment, and the
// log offset the table covers. Replay resumes at that offset instead
// of the start of the log, so the checkpoint is purely an accelerator
// — a missing or corrupt one forces a full replay, never wrong data.
//
//	[8]  magic "IBLOGCK1"
//	u64  generation
//	u64  active segment sequence
//	u64  covered log offset in the active segment
//	u64  dataBytes (live + dead payload bytes across the log)
//	u64  object count
//	per object:
//	  u64  file id
//	  u64  logical size
//	  u64  extent count
//	  per extent: u64 off, u64 n, u64 seg, u64 pos, u64 gen
//	u64  segment count
//	per segment, ascending: u64 sequence, u64 dataBytes
//	u32  crc32c over everything above
//
// The segment table restores each segment's share of dataBytes (its
// live share follows from the extents), which is what the cleaner picks
// victims by. It lists every segment in the log when the table was
// encoded; the extents may reference only listed segments.
//
// Installation is atomic: the bytes go to checkpoint.tmp, that file is
// fsynced, renamed over "checkpoint", and the directory is fsynced. A
// crash at any instant leaves either the old checkpoint or the new one
// — never a readable half of each.
var ckptMagic = [8]byte{'I', 'B', 'L', 'O', 'G', 'C', 'K', '2'}

// checkpointState is a decoded checkpoint.
type checkpointState struct {
	gen       uint64
	seg       uint64
	off       int64
	dataBytes int64
	objects   map[uint64]*object
	segData   map[uint64]int64 // payload bytes appended, per listed segment
}

// refs returns the segments the checkpoint cannot be trusted without:
// the one it was appending to and every one an extent points into.
func (ck *checkpointState) refs() map[uint64]bool {
	refs := map[uint64]bool{ck.seg: true}
	for _, o := range ck.objects {
		for _, e := range o.ext {
			refs[e.Seg] = true
		}
	}
	return refs
}

func putU64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

// encodeCheckpointLocked serializes the mapping table (mu held).
// Objects, their extents and the segment table are written in sorted
// order so the bytes — and the CRC — are a pure function of the store
// state.
func (s *LogStore) encodeCheckpointLocked() []byte {
	ids := sortedKeys(s.objects)
	seqs := sortedKeys(s.segs)
	buf := make([]byte, 0, 8+6*8+len(ids)*3*8+len(seqs)*2*8+4)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, s.gen)
	buf = binary.BigEndian.AppendUint64(buf, s.active.seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.active.size))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.dataBytes))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(ids)))
	for _, id := range ids {
		o := s.objects[id]
		buf = binary.BigEndian.AppendUint64(buf, id)
		buf = binary.BigEndian.AppendUint64(buf, uint64(o.size))
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(o.ext)))
		for _, e := range o.ext {
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.Off))
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.N))
			buf = binary.BigEndian.AppendUint64(buf, e.Seg)
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.Pos))
			buf = binary.BigEndian.AppendUint64(buf, e.Gen)
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(seqs)))
	for _, seq := range seqs {
		buf = binary.BigEndian.AppendUint64(buf, seq)
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.segs[seq].data))
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// checkpoint installs a checkpoint of the current state. The table is
// encoded under mu — after dropping the cleaned segments in drop from
// the log, so the table it encodes no longer lists them — and written,
// fsynced and renamed into place outside it. Callers hold the
// maintenance token (Open runs before any concurrency), which is what
// keeps an older table from being installed over a newer one.
func (s *LogStore) checkpoint(drop []*segment) error {
	start := time.Now()
	s.mu.Lock()
	if err := s.deadLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	for _, v := range drop {
		if v.live != 0 {
			panic(fmt.Sprintf("logstore: dropping segment %d with %d live bytes", v.seq, v.live))
		}
		delete(s.segs, v.seq)
		s.dataBytes -= v.data
		s.frameBytes -= v.size
	}
	buf := s.encodeCheckpointLocked()
	s.sinceCkpt = 0
	s.setByteGauges()
	s.mu.Unlock()
	if err := writeCheckpoint(s.dir, buf); err != nil {
		return err
	}
	s.st.checkpoints.Inc()
	if tr := s.cfg.Tracer; tr != nil {
		tr.Span(tr.NewID(), tr.NewID(), 0, "logstore.checkpoint", s.cfg.Scope, start, time.Since(start))
	}
	return nil
}

// writeCheckpoint installs buf as dir's checkpoint: write to the
// staging file, fsync, rename into place, fsync the directory.
func writeCheckpoint(dir string, buf []byte) error {
	tmp := filepath.Join(dir, ckptTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckptName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadCheckpoint reads and validates the checkpoint at path. ok is
// false — and the caller falls back to a full replay — when the file
// is missing, truncated, fails its CRC, or is structurally
// inconsistent. It never panics on arbitrary bytes (the malformed-
// checkpoint table test pins this).
func loadCheckpoint(path string) (ck checkpointState, ok bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return ck, false
	}
	if len(buf) < 8+6*8+4 || [8]byte(buf[:8]) != ckptMagic {
		return ck, false
	}
	body, trailer := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != trailer {
		return ck, false
	}
	r := body[8:]
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(r)
		r = r[8:]
		return v
	}
	ck.gen = u64()
	ck.seg = u64()
	ck.off = int64(u64())
	ck.dataBytes = int64(u64())
	n := u64()
	if ck.off < segHeaderLen || ck.dataBytes < 0 || n > uint64(len(r))/(3*8) {
		return checkpointState{}, false
	}
	ck.objects = make(map[uint64]*object, n)
	for range n {
		if len(r) < 3*8 {
			return checkpointState{}, false
		}
		id := u64()
		size := int64(u64())
		nExt := u64()
		if size < 0 || nExt > uint64(len(r))/(5*8) {
			return checkpointState{}, false
		}
		o := &object{size: size, ext: make(extent.List, 0, nExt)}
		var prevEnd int64
		for range nExt {
			e := extent.Extent{Off: int64(u64()), N: int64(u64()), Seg: u64(), Pos: int64(u64()), Gen: u64()}
			if e.Off < prevEnd || e.N <= 0 || e.Pos < segHeaderLen || e.Off+e.N > size {
				return checkpointState{}, false
			}
			prevEnd = e.Off + e.N
			o.ext = append(o.ext, e)
		}
		if _, dup := ck.objects[id]; dup {
			return checkpointState{}, false
		}
		ck.objects[id] = o
	}
	if len(r) < 8 {
		return checkpointState{}, false
	}
	nSeg := u64()
	if nSeg != uint64(len(r))/(2*8) || len(r)%(2*8) != 0 {
		return checkpointState{}, false
	}
	ck.segData = make(map[uint64]int64, nSeg)
	var prevSeq uint64
	var total int64
	for range nSeg {
		seq, data := u64(), int64(u64())
		if seq <= prevSeq || data < 0 {
			return checkpointState{}, false
		}
		prevSeq = seq
		ck.segData[seq] = data
		total += data
	}
	// Every segment the table points into must be listed and hold at
	// least the bytes the extents claim live in it.
	live := make(map[uint64]int64, nSeg)
	for _, o := range ck.objects {
		for _, e := range o.ext {
			live[e.Seg] += e.N
		}
	}
	for _, seq := range sortedKeys(live) {
		if data, ok := ck.segData[seq]; !ok || live[seq] > data {
			return checkpointState{}, false
		}
	}
	if _, ok := ck.segData[ck.seg]; !ok || total != ck.dataBytes {
		return checkpointState{}, false
	}
	return ck, true
}
