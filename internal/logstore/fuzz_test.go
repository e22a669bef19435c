package logstore

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLogRecord throws arbitrary bytes, read as a record of segment
// seq, at the record decoder — the function that walks untrusted
// on-disk state during journal replay. Properties pinned:
//
//   - decodeRecord never panics (the replay path must survive any
//     torn or bit-rotted log tail);
//   - a decode either fails or consumes a frame that re-encodes, for
//     the same segment, to byte-identical wire form (decode∘encode is
//     the identity on accepted inputs, so replay and compaction can
//     round-trip records without drift);
//   - a frame accepted for segment seq is rejected for seq+1, so a
//     reused segment file's old records never replay as new ones;
//   - consumed byte counts stay inside the input.
func FuzzLogRecord(f *testing.F) {
	// Consecutive sequences differ in their low k+1 bits for some k, so
	// their seeds differ for every body exactly when they differ for the
	// empty one (the checksum is linear): check all 64 k up front.
	for k := range 64 {
		if s := uint64(1)<<k - 1; crcSeed(s) == crcSeed(s+1) {
			f.Fatalf("crcSeed(%d) == crcSeed(%d)", s, s+1)
		}
	}
	if crcSeed(math.MaxUint64) == crcSeed(0) {
		f.Fatal("crcSeed(MaxUint64) == crcSeed(0)")
	}

	// Seed with a valid frame, a truncation, a bit-flip, and noise.
	valid := appendRecord(nil, crcSeed(5), record{kind: recKindWrite, gen: 3, file: 7, off: 4096, data: []byte("fragment payload")})
	f.Add(uint64(5), valid)
	f.Add(uint64(5), valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x20
	f.Add(uint64(5), flipped)
	f.Add(uint64(1), []byte{})
	f.Add(uint64(1), bytes.Repeat([]byte{0xFF}, 64))
	f.Add(uint64(0), appendRecord(nil, crcSeed(0), record{kind: recKindWrite, gen: 0, file: 0, off: 0, data: nil}))
	// The same valid frame read as a record of the next segment.
	f.Add(uint64(6), valid)

	f.Fuzz(func(t *testing.T, seq uint64, data []byte) {
		rec, n, err := decodeRecord(data, crcSeed(seq))
		if err != nil {
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		if n < recOverhead || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if rec.off < 0 {
			t.Fatalf("accepted negative offset %d", rec.off)
		}
		if rec.kind != recKindWrite {
			t.Fatalf("accepted unknown kind %d", rec.kind)
		}
		if rec.frameLen() != n {
			t.Fatalf("frameLen %d != consumed %d", rec.frameLen(), n)
		}
		// Re-encoding the decoded record for its segment must reproduce
		// the exact accepted frame.
		if got := appendRecord(nil, crcSeed(seq), rec); !bytes.Equal(got, data[:n]) {
			t.Fatal("decode/encode round trip diverged")
		}
		if _, _, err := decodeRecord(data, crcSeed(seq+1)); err != errBadCRC {
			t.Fatalf("a frame of segment %d decoded for segment %d with error %v, want %v", seq, seq+1, err, errBadCRC)
		}
	})
}
