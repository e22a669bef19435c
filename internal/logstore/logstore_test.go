package logstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// testConfig keeps unit tests deterministic: no background compactor,
// small checkpoint interval so checkpoint paths actually run.
func testConfig() Config {
	return Config{NoCompactor: true, CheckpointBytes: 1 << 16}
}

// fill returns n deterministic bytes seeded by seed.
func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// shadow is the reference model: plain in-memory byte slices.
type shadow map[uint64][]byte

func (sh shadow) write(file uint64, off int64, data []byte) {
	o := sh[file]
	if end := off + int64(len(data)); int64(len(o)) < end {
		grown := make([]byte, end)
		copy(grown, o)
		o = grown
	}
	copy(o[off:], data)
	sh[file] = o
}

// verify checks every shadow object byte-for-byte against the store,
// including a read past EOF (must zero-fill).
func (sh shadow) verify(t *testing.T, s *LogStore) {
	t.Helper()
	for file, want := range sh {
		size, err := s.Size(file)
		if err != nil {
			t.Fatalf("Size(%d): %v", file, err)
		}
		if size != int64(len(want)) {
			t.Fatalf("Size(%d) = %d, want %d", file, size, len(want))
		}
		got := make([]byte, len(want)+37)
		if err := s.ReadAt(file, 0, got); err != nil {
			t.Fatalf("ReadAt(%d): %v", file, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("object %d: contents diverge from shadow", file)
		}
		if !bytes.Equal(got[len(want):], make([]byte, 37)) {
			t.Fatalf("object %d: read past EOF not zero-filled", file)
		}
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := shadow{}
	// Sparse writes, overlapping overwrites, multiple objects.
	steps := []struct {
		file uint64
		off  int64
		n    int
		seed byte
	}{
		{1, 0, 100, 1}, {1, 50, 100, 2}, {1, 25, 10, 3},
		{2, 1000, 64, 4}, {1, 0, 200, 5}, {2, 990, 30, 6},
		{3, 0, 1, 7}, {1, 149, 2, 8},
	}
	for _, st := range steps {
		data := fill(st.n, st.seed)
		if err := s.WriteAt(st.file, st.off, data); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		sh.write(st.file, st.off, data)
	}
	sh.verify(t, s)
	if n, err := s.Size(99); err != nil || n != 0 {
		t.Fatalf("Size(unwritten) = %d, %v; want 0, nil", n, err)
	}
	if err := s.WriteAt(1, -1, []byte{1}); err == nil {
		t.Fatal("WriteAt negative offset: want error")
	}
	if err := s.ReadAt(1, -1, make([]byte, 1)); err == nil {
		t.Fatal("ReadAt negative offset: want error")
	}
}

func TestReopenPreservesState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	for i := range 50 {
		data := fill(100+i, byte(i))
		if err := s.WriteAt(uint64(i%5), int64(i*40), data); err != nil {
			t.Fatal(err)
		}
		sh.write(uint64(i%5), int64(i*40), data)
	}
	gen0 := s.Generation()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err = Open(dir, testConfig())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	sh.verify(t, s)
	st := s.Stats()
	if st.Replays != 1 {
		t.Fatalf("Replays = %d, want 1", st.Replays)
	}
	if st.Generation != gen0+1 {
		t.Fatalf("Generation = %d, want %d", st.Generation, gen0+1)
	}
	// Clean close checkpoints, so the suffix replay applied nothing.
	if st.ReplayedRecords != 0 {
		t.Fatalf("ReplayedRecords = %d, want 0 after clean close", st.ReplayedRecords)
	}
}

// TestReplayWithoutCheckpoint deletes the checkpoint: Open must fall
// back to a full replay and reconstruct identical state.
func TestReplayWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	for i := range 30 {
		data := fill(64, byte(i))
		if err := s.WriteAt(7, int64(i*48), data); err != nil {
			t.Fatal(err)
		}
		sh.write(7, int64(i*48), data)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ckptName)); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh.verify(t, s)
	st := s.Stats()
	if st.BadCheckpoints != 1 {
		t.Fatalf("BadCheckpoints = %d, want 1", st.BadCheckpoints)
	}
	if st.ReplayedRecords != 30 {
		t.Fatalf("ReplayedRecords = %d, want 30", st.ReplayedRecords)
	}
}

// TestTornTailTruncated appends garbage half-frames to the log after a
// clean close: replay must truncate at the first bad record and keep
// every acknowledged write.
func TestTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		mut  func(frame []byte) []byte
	}{
		{"truncated-frame", func(f []byte) []byte { return f[:len(f)/2] }},
		{"bit-flip", func(f []byte) []byte { f[len(f)-1] ^= 0x40; return f }},
		{"garbage", func(f []byte) []byte { return bytes.Repeat([]byte{0xEE}, 20) }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			sh := shadow{}
			for i := range 10 {
				data := fill(80, byte(i))
				if err := s.WriteAt(1, int64(i*80), data); err != nil {
					t.Fatal(err)
				}
				sh.write(1, int64(i*80), data)
			}
			gen := s.Generation()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Hand-append a torn record past the clean tail.
			frame := appendRecord(nil, crcSeed(1), record{kind: recKindWrite, gen: gen, file: 1, off: 800, data: fill(80, 99)})
			frame = tear.mut(frame)
			seg := segPath(dir, 1)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
			f.Close()
			// The checkpoint from Close covers the clean tail; delete it
			// so replay actually walks over the torn bytes.
			if err := os.Remove(filepath.Join(dir, ckptName)); err != nil {
				t.Fatal(err)
			}
			s, err = Open(dir, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sh.verify(t, s)
			st := s.Stats()
			if st.TruncatedTails != 1 {
				t.Fatalf("TruncatedTails = %d, want 1", st.TruncatedTails)
			}
		})
	}
}

// TestCrashAppendEitherOr pins record atomicity around the simulated
// kill: a torn fraction < 1 must vanish on replay, a fully-written
// frame (frac 1.0, crash before the ack) may legitimately survive —
// and with this store's ordering, always does. The append writes the
// record header and then the data, so the tears land once inside the
// header and once inside the data; either way the log must hold exactly
// that prefix of the single-buffer frame.
func TestCrashAppendEitherOr(t *testing.T) {
	const dataLen = 60
	frameLen := recOverhead + dataLen
	for _, tc := range []struct {
		frac    float64
		applied bool
	}{
		{0, false}, {0.2, false}, {0.5, false}, {1.0, true},
	} {
		t.Run(fmt.Sprintf("frac=%v", tc.frac), func(t *testing.T) {
			torn := int(float64(frameLen) * tc.frac)
			switch tc.frac {
			case 0.2:
				if torn <= 0 || torn >= recOverhead {
					t.Fatalf("tear at byte %d is not inside the %d-byte header", torn, recOverhead)
				}
			case 0.5:
				if torn <= recOverhead || torn >= frameLen {
					t.Fatalf("tear at byte %d is not inside the data", torn)
				}
			}
			dir := t.TempDir()
			s, err := Open(dir, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			sh := shadow{}
			for i := range 5 {
				data := fill(dataLen, byte(i))
				if err := s.WriteAt(3, int64(i*dataLen), data); err != nil {
					t.Fatal(err)
				}
				sh.write(3, int64(i*dataLen), data)
			}
			s.CrashAppend(1, tc.frac)
			crashData := fill(dataLen, 77)
			seg, at := s.active, s.active.size
			want := appendRecord(nil, seg.seed, record{kind: recKindWrite, gen: s.gen, file: 3, off: 5 * dataLen, data: crashData})
			if err := s.WriteAt(3, 5*dataLen, crashData); err != ErrCrashed {
				t.Fatalf("crashed WriteAt err = %v, want ErrCrashed", err)
			}
			if !s.Crashed() {
				t.Fatal("Crashed() = false after injected kill")
			}
			if err := s.ReadAt(3, 0, make([]byte, 1)); err != ErrCrashed {
				t.Fatalf("post-crash ReadAt err = %v, want ErrCrashed", err)
			}
			log, err := os.ReadFile(segPath(dir, seg.seq))
			if err != nil {
				t.Fatal(err)
			}
			if end := at + int64(torn); int64(len(log)) < end || !bytes.Equal(log[at:end], want[:torn]) {
				t.Fatalf("the log does not hold the frame's first %d bytes at %d", torn, at)
			}
			s.Close() // must NOT checkpoint or sync — the process is "dead"
			s, err = Open(dir, testConfig())
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer s.Close()
			if tc.applied {
				// Fully durable frame: replay applies it even though the
				// writer never saw the ack.
				sh.write(3, 5*dataLen, crashData)
			}
			sh.verify(t, s)
			st := s.Stats()
			if tc.frac > 0 && tc.frac < 1 && st.TruncatedTails == 0 {
				t.Fatal("torn frame survived: TruncatedTails = 0")
			}
			if st.ReplayedRecords == 0 && !tc.applied && tc.frac != 0 {
				t.Log("note: no records replayed (checkpoint covered log)")
			}
		})
	}
}

// TestAppendBytesMatchFrame pins the on-disk bytes of the two-part
// append (header, then the data from the caller's buffer) to the
// single-buffer frame appendRecord encodes, for records of random
// files, offsets and sizes — tiny, around the header size, and large.
func TestAppendBytesMatchFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{NoCompactor: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	seg := s.active
	hdr := segHeader(seg.seq)
	frames := hdr[:]
	for i := range 40 {
		var n int
		switch i % 3 {
		case 0:
			n = 1 + int(next(64))
		case 1:
			n = 1 + int(next(4096))
		default:
			n = 1 + int(next(96<<10))
		}
		rec := record{kind: recKindWrite, gen: s.gen, file: 1 + next(4), off: int64(next(1 << 20)), data: fill(n, byte(i))}
		if err := s.WriteAt(rec.file, rec.off, rec.data); err != nil {
			t.Fatal(err)
		}
		frames = appendRecord(frames, seg.seed, rec)
	}
	if s.active != seg {
		t.Fatal("the records rolled the segment; shrink them")
	}
	log, err := os.ReadFile(segPath(dir, seg.seq))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(frames)) != seg.size || len(log) < len(frames) || !bytes.Equal(log[:len(frames)], frames) {
		t.Fatalf("segment holds %d bytes (size %d), want the %d bytes of the single-buffer frames", len(log), seg.size, len(frames))
	}
}

// TestWrongGenerationTruncated forges a record stamped with a future
// generation past the clean tail: replay must treat it as corruption.
func TestWrongGenerationTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	for i := range 8 {
		data := fill(40, byte(i))
		if err := s.WriteAt(2, int64(i*40), data); err != nil {
			t.Fatal(err)
		}
		sh.write(2, int64(i*40), data)
	}
	gen := s.Generation()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A well-formed record with the wrong generation after the
	// checkpointed tail: suffix replay (strict) must reject it.
	frame := appendRecord(nil, crcSeed(1), record{kind: recKindWrite, gen: gen + 5, file: 2, off: 0, data: fill(40, 200)})
	f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err = Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh.verify(t, s) // the forged overwrite of offset 0 must NOT apply
	st := s.Stats()
	if st.BadGenerations != 1 {
		t.Fatalf("BadGenerations = %d, want 1", st.BadGenerations)
	}
	if st.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", st.TruncatedTails)
	}
}

func TestPeriodicCheckpointAndSuffixReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointBytes = 2048 // force several periodic checkpoints
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	for i := range 64 {
		data := fill(128, byte(i))
		if err := s.WriteAt(uint64(i%3), int64(i*100), data); err != nil {
			t.Fatal(err)
		}
		sh.write(uint64(i%3), int64(i*100), data)
	}
	if st := s.Stats(); st.Checkpoints < 3 {
		t.Fatalf("Checkpoints = %d, want >= 3", st.Checkpoints)
	}
	// Simulate a kill with zero torn bytes after more writes: replay
	// resumes from the last periodic checkpoint and applies the suffix.
	s.CrashAppend(10, 1.0)
	for i := range 10 {
		data := fill(90, byte(100+i))
		err := s.WriteAt(1, int64(i*77), data)
		if i == 9 {
			if err != ErrCrashed {
				t.Fatalf("write %d err = %v, want ErrCrashed", i, err)
			}
			sh.write(1, int64(i*77), data) // frac 1.0: fully durable
		} else {
			if err != nil {
				t.Fatal(err)
			}
			sh.write(1, int64(i*77), data)
		}
	}
	s.Close()
	s, err = Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh.verify(t, s)
	if st := s.Stats(); st.ReplayedRecords == 0 {
		t.Fatal("expected a nonzero suffix replay past the periodic checkpoint")
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	// Overwrite the same ranges repeatedly: most of the log is garbage.
	for round := range 20 {
		for _, file := range []uint64{1, 2} {
			data := fill(512, byte(round))
			if err := s.WriteAt(file, 0, data); err != nil {
				t.Fatal(err)
			}
			sh.write(file, 0, data)
		}
	}
	// One sparse tail so extents are non-trivial.
	if err := s.WriteAt(1, 4096, fill(64, 9)); err != nil {
		t.Fatal(err)
	}
	sh.write(1, 4096, fill(64, 9))
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.CompactionRuns != before.CompactionRuns+1 {
		t.Fatalf("CompactionRuns = %d, want %d", after.CompactionRuns, before.CompactionRuns+1)
	}
	if after.LogBytes >= before.LogBytes {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.LogBytes, after.LogBytes)
	}
	if after.LiveBytes != before.LiveBytes {
		t.Fatalf("compaction changed live bytes: %d -> %d", before.LiveBytes, after.LiveBytes)
	}
	sh.verify(t, s)
	// Old segment must be gone; exactly one segment remains.
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("segments after compaction = %v, want [2]", seqs)
	}
	// Writes keep landing after compaction, and reopen still replays.
	if err := s.WriteAt(2, 100, fill(50, 42)); err != nil {
		t.Fatal(err)
	}
	sh.write(2, 100, fill(50, 42))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh.verify(t, s)
}

// TestCompactionThreshold drives the sealed segments' garbage ratio
// over the trigger via the public write path and checks the
// maintenance pass the background signal would run (explicitly,
// compactor disabled) cleans until the ratio is back under the bound.
func TestCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointBytes = 1024 // segments of two records
	cfg.CompactMinBytes = 1024
	cfg.GarbageRatio = 0.5
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := shadow{}
	for i := range 10 {
		data := fill(512, byte(i))
		if err := s.WriteAt(1, 0, data); err != nil {
			t.Fatal(err)
		}
		sh.write(1, 0, data)
	}
	s.mu.Lock()
	need := s.needCleanLocked()
	s.mu.Unlock()
	if !need {
		t.Fatal("needCleanLocked = false with every sealed segment dead")
	}
	if err := s.maintain(true); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CompactionRuns != 1 || st.CleanedSegments != 4 || st.CopiedBytes != 0 {
		t.Fatalf("runs=%d cleaned=%d copied=%d, want 1 cycle retiring the 4 dead segments without a copy",
			st.CompactionRuns, st.CleanedSegments, st.CopiedBytes)
	}
	s.mu.Lock()
	need = s.needCleanLocked()
	s.mu.Unlock()
	if need {
		t.Fatal("needCleanLocked still true after the cycle")
	}
	sh.verify(t, s)
}

// TestRecoveryUnreferencedSegments pins the recovery rule for segments
// a valid checkpoint does not reference: one older than the segment the
// checkpoint was appending to is a cleaned victim whose retirement never
// happened and is deleted; one newer was rolled into after the
// checkpoint and is replayed, in sequence order.
func TestRecoveryUnreferencedSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointBytes = 1024
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	write := func(file uint64, off int64, n int, seed byte) {
		t.Helper()
		data := fill(n, seed)
		if err := s.WriteAt(file, off, data); err != nil {
			t.Fatal(err)
		}
		sh.write(file, off, data)
	}
	// Segment 1 ends up wholly dead, segment 2 partly live.
	write(1, 0, 600, 1)
	write(1, 600, 600, 2)
	write(1, 0, 600, 3)
	write(1, 600, 600, 4)
	write(2, 0, 300, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(dir)
	ck, ok := loadCheckpoint(filepath.Join(dir, ckptName))
	if !ok || len(seqs) != 3 || ck.seg != 3 || ck.refs()[1] {
		t.Fatalf("setup: segments %v, checkpoint ok=%v seg=%d refs=%v; want [1 2 3], seg 3, seg 1 unreferenced", seqs, ok, ck.seg, ck.refs())
	}
	// Hand-roll what a crash right after the checkpoint leaves behind:
	// newer segments 4 and 5 holding records of the checkpoint's
	// generation, 5 overwriting part of what 4 wrote.
	newer := func(seq uint64, off int64, n int, seed byte) {
		t.Helper()
		data := fill(n, seed)
		hdr := segHeader(seq)
		frame := appendRecord(hdr[:], crcSeed(seq), record{kind: recKindWrite, gen: ck.gen, file: 2, off: off, data: data})
		if err := os.WriteFile(segPath(dir, seq), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		sh.write(2, off, data)
	}
	newer(4, 100, 400, 6)
	newer(5, 200, 100, 7)
	s, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh.verify(t, s)
	if st := s.Stats(); st.BadCheckpoints != 0 || st.ReplayedRecords != 2 {
		t.Fatalf("BadCheckpoints=%d ReplayedRecords=%d, want the checkpoint trusted and the 2 newer records replayed", st.BadCheckpoints, st.ReplayedRecords)
	}
	seqs, err = listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seqs) != "[2 3 4 5]" {
		t.Fatalf("segments = %v, want older unreferenced seg-1 deleted and newer 4, 5 kept", seqs)
	}
	// Appends continue in the newest segment, so log order stays
	// (sequence, offset) order.
	write(2, 0, 50, 8)
	if s.active.seq != 5 {
		t.Fatalf("active segment = %d, want 5", s.active.seq)
	}
	sh.verify(t, s)
}

// TestSegmentMagic pins how Open treats a segment's magic: a segment
// stamped in the previous format (unseeded checksums) fails Open with
// an error naming that format and is left untouched, while any other
// wrong magic is a torn header, reset to an empty segment.
func TestSegmentMagic(t *testing.T) {
	setup := func(t *testing.T) (string, shadow) {
		t.Helper()
		dir := t.TempDir()
		s, err := Open(dir, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		sh := shadow{}
		for i := range 6 {
			data := fill(50, byte(i))
			if err := s.WriteAt(4, int64(i*50), data); err != nil {
				t.Fatal(err)
			}
			sh.write(4, int64(i*50), data)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, sh
	}
	t.Run("previous-format", func(t *testing.T) {
		dir, _ := setup(t)
		p := segPath(dir, 1)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		copy(b, segMagicV1[:])
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, testConfig())
		if err == nil {
			s.Close()
			t.Fatal("Open accepted a segment in the previous format")
		}
		if !strings.Contains(err.Error(), "IBLSEG01") {
			t.Fatalf("Open error %q does not name the format", err)
		}
		if after, _ := os.ReadFile(p); !bytes.Equal(after, b) {
			t.Fatal("the refused segment was modified")
		}
	})
	t.Run("torn-header", func(t *testing.T) {
		dir, sh := setup(t)
		// A spare whose header write was cut short: wrong magic, then
		// junk.
		torn := append([]byte("IBLSEG9"), bytes.Repeat([]byte{0xA5}, 30)...)
		if err := os.WriteFile(segPath(dir, 2), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, testConfig())
		if err != nil {
			t.Fatalf("Open with a torn header: %v", err)
		}
		defer s.Close()
		sh.verify(t, s)
		hdr := segHeader(2)
		if got, _ := os.ReadFile(segPath(dir, 2)); !bytes.Equal(got, hdr[:]) {
			t.Fatalf("torn segment reads %x after Open, want the bare header %x", got, hdr)
		}
		data := fill(50, 99)
		if err := s.WriteAt(4, 10, data); err != nil {
			t.Fatal(err)
		}
		sh.write(4, 10, data)
		sh.verify(t, s)
	})
}

func TestObsMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if err := s.WriteAt(1, int64(i*10), fill(10, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	cv := reg.CounterValues()
	if cv["logstore.appends"] != 5 {
		t.Fatalf("logstore.appends = %d, want 5", cv["logstore.appends"])
	}
	if st := s.Stats(); cv["logstore.appends"] != st.Appends {
		t.Fatalf("logstore.appends = %d, Stats().Appends = %d", cv["logstore.appends"], st.Appends)
	}
	if cv["logstore.checkpoints"] < 2 { // Open + Close
		t.Fatalf("logstore.checkpoints = %d, want >= 2", cv["logstore.checkpoints"])
	}
}

func TestEmptyWriteIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteAt(1, 100, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Size(1); err != nil || n != 0 {
		t.Fatalf("Size = %d, %v after empty write; want 0", n, err)
	}
	if got := s.Stats().Appends; got != 0 {
		t.Fatalf("Stats().Appends = %d after empty write, want 0", got)
	}
}

func BenchmarkLogStoreAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Config{NoCompactor: true, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := fill(4096, 1)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteAt(uint64(i%16), int64((i%256)*4096), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogStoreReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Config{NoCompactor: true, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	data := fill(4096, 2)
	const records = 2000
	for i := range records {
		if err := s.WriteAt(uint64(i%16), int64((i%256)*4096), data); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(records * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Deleting the checkpoint forces a full journal replay: the
		// benchmark measures honest recovery cost, not checkpoint load.
		b.StopTimer()
		if err := os.Remove(filepath.Join(dir, ckptName)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s, err := Open(dir, Config{NoCompactor: true, CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.ReplayedRecords != records {
			b.Fatalf("ReplayedRecords = %d, want %d", st.ReplayedRecords, records)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
