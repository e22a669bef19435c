package logstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestMalformedCheckpointRecovers feeds loadCheckpoint (and then a
// full Open) every corruption class the format must survive:
// truncated, bit-flipped, oversized counts, wrong magic. None may
// panic; all must force the full-replay fallback, which recovers the
// store to the exact acknowledged contents.
func TestMalformedCheckpointRecovers(t *testing.T) {
	// Build a real store with real state so the checkpoint is
	// representative, then corrupt it.
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	for i := range 20 {
		data := fill(100, byte(i))
		if err := s.WriteAt(uint64(i%4), int64(i*64), data); err != nil {
			t.Fatal(err)
		}
		sh.write(uint64(i%4), int64(i*64), data)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, ckptName)
	good, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-tail-crc", func(b []byte) []byte { return b[:len(b)-2] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bit-flip-body", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
		{"bit-flip-crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"huge-object-count", func(b []byte) []byte {
			// Object count lives after magic+gen+seg+off+dataBytes.
			binary.BigEndian.PutUint64(b[8+4*8:], 1<<40)
			return b // CRC now wrong too, but the count guard must also hold alone
		}},
		{"zeroed", func(b []byte) []byte { return make([]byte, len(b)) }},
		{"all-ones", func(b []byte) []byte { return bytes.Repeat([]byte{0xFF}, len(b)) }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			bad := c.mut(append([]byte(nil), good...))
			if err := os.WriteFile(ckPath, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := loadCheckpoint(ckPath); ok {
				t.Fatal("loadCheckpoint accepted corrupt bytes")
			}
			s, err := Open(dir, testConfig())
			if err != nil {
				t.Fatalf("Open with corrupt checkpoint: %v", err)
			}
			sh.verify(t, s)
			st := s.Stats()
			if st.BadCheckpoints != 1 {
				t.Fatalf("BadCheckpoints = %d, want 1", st.BadCheckpoints)
			}
			if st.ReplayedRecords != 20 {
				t.Fatalf("ReplayedRecords = %d, want full replay of 20", st.ReplayedRecords)
			}
			// Close reinstalls a good checkpoint; restore the corrupt one
			// for the next case from the saved copy... except Close already
			// wrote a fresh valid one, which is what the next mutation runs
			// against — equivalent to `good` structurally. Re-read it.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			good, err = os.ReadFile(ckPath)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointRejectsInconsistentTables hand-crafts structurally
// invalid but CRC-valid checkpoints: the semantic guards must reject
// them (never panic, never accept).
func TestCheckpointRejectsInconsistentTables(t *testing.T) {
	seal := func(body []byte) []byte {
		return binary.BigEndian.AppendUint32(body, crcOf(body))
	}
	header := func(gen, seg, off, dataBytes, nObj uint64) []byte {
		b := append([]byte(nil), ckptMagic[:]...)
		for _, v := range []uint64{gen, seg, off, dataBytes, nObj} {
			b = binary.BigEndian.AppendUint64(b, v)
		}
		return b
	}
	u64s := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.BigEndian.AppendUint64(b, v)
		}
		return b
	}
	// segs appends the segment table: (sequence, dataBytes) pairs.
	segs := func(b []byte, pairs ...uint64) []byte {
		return u64s(append(b, 0, 0, 0, 0, 0, 0, 0, byte(len(pairs)/2)), pairs...)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"coverage-below-header", seal(segs(header(1, 1, 3, 0, 0), 1, 0))},
		{"trailing-garbage", seal(append(segs(header(1, 1, 16, 0, 0), 1, 0), 0xAB))},
		{"object-count-overruns", seal(segs(header(1, 1, 16, 0, 7), 1, 0))},
		// One object claiming one extent but no extent bytes follow.
		{"extent-count-overruns", seal(segs(u64s(header(1, 1, 16, 0, 1), 5, 100, 1), 1, 0))},
		// Extent end past object size.
		{"extent-past-size", seal(segs(u64s(header(1, 1, 16, 20, 1), 5, 50, 1, 40, 20, 1, 16, 1), 1, 20))},
		// Overlapping extents (off 0..20 then 10..30).
		{"overlapping-extents", seal(segs(u64s(header(1, 1, 16, 40, 1), 5, 30, 2, 0, 20, 1, 16, 1, 10, 20, 1, 44, 1), 1, 40))},
		// Extent data position inside the segment header.
		{"pos-in-header", seal(segs(u64s(header(1, 1, 16, 10, 1), 5, 10, 1, 0, 10, 1, 4, 1), 1, 10))},
		// Duplicate object id.
		{"dup-object", seal(segs(u64s(header(1, 1, 16, 0, 2), 5, 0, 0, 5, 0, 0), 1, 0))},
		// The segment table: missing, unsorted, not listing a segment an
		// extent points into, listing fewer bytes than are live there,
		// not listing the active segment, disagreeing with dataBytes.
		{"no-segment-table", seal(header(1, 1, 16, 0, 0))},
		{"segments-unsorted", seal(segs(header(1, 2, 16, 0, 0), 2, 0, 1, 0))},
		{"extent-in-unlisted-segment", seal(segs(u64s(header(1, 2, 16, 10, 1), 5, 10, 1, 0, 10, 1, 16, 1), 2, 10))},
		{"live-exceeds-segment-data", seal(segs(u64s(header(1, 1, 16, 5, 1), 5, 10, 1, 0, 10, 1, 16, 1), 1, 5))},
		{"active-unlisted", seal(segs(header(1, 2, 16, 0, 0), 1, 0))},
		{"data-bytes-disagree", seal(segs(header(1, 1, 16, 7, 0), 1, 0))},
	}
	// The control: the same builders produce a table loadCheckpoint
	// accepts, so each rejection above is for the defect it names.
	t.Run("control-accepted", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "ck")
		raw := seal(segs(u64s(header(1, 2, 16, 30, 1), 5, 10, 1, 0, 10, 1, 16, 1), 1, 30, 2, 0))
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := loadCheckpoint(p); !ok {
			t.Fatal("loadCheckpoint rejected a consistent table")
		}
	})
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(dir, "ck")
			if err := os.WriteFile(p, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := loadCheckpoint(p); ok {
				t.Fatal("loadCheckpoint accepted inconsistent table")
			}
		})
	}
}

// crcOf mirrors the checkpoint trailer computation for test inputs.
func crcOf(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}
