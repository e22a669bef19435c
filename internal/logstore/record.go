package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk record framing. Every mutation of the store is one
// length-prefixed, checksummed record appended to the active log
// segment:
//
//	u32  length   — bytes that follow the crc field (body length)
//	u32  crc32c   — Castagnoli checksum over the body
//	body:
//	  u8   kind       — recKindWrite
//	  u64  generation — the store generation that appended the record
//	  u64  file       — object id
//	  i64  off        — logical object offset
//	  data            — length-25 payload bytes
//
// The framing is the recovery contract: replay walks records in append
// order and the first one that fails to frame or checksum marks the
// torn tail — everything before it is durable, everything at and after
// it never happened (the file is truncated there). A record is
// therefore atomic: a crash mid-append loses the whole record, never a
// prefix of its bytes.
const (
	recKindWrite = 1

	recHeaderLen = 8             // length + crc
	recBodyFixed = 1 + 8 + 8 + 8 // kind + generation + file + off
	recOverhead  = recHeaderLen + recBodyFixed

	// MaxRecordData bounds one record's payload. Anything larger in a
	// length field is treated as framing corruption, which keeps a
	// single flipped length bit from making replay allocate gigabytes.
	MaxRecordData = 16 << 20
)

// Decode errors. All of them mean "torn or corrupt at this offset" to
// replay; they are distinct so tests and the fuzzer can assert which
// guard tripped.
var (
	errShortRecord = errors.New("logstore: short record frame")
	errBadLength   = errors.New("logstore: bad record length")
	errBadCRC      = errors.New("logstore: record checksum mismatch")
	errBadKind     = errors.New("logstore: unknown record kind")
	errBadOffset   = errors.New("logstore: negative record offset")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded log record.
type record struct {
	kind byte
	gen  uint64
	file uint64
	off  int64
	data []byte
}

// frameLen returns the on-disk size of rec's frame.
func (r record) frameLen() int { return recOverhead + len(r.data) }

// appendRecord appends rec's wire frame to dst and returns the
// extended slice.
func appendRecord(dst []byte, rec record) []byte {
	body := recBodyFixed + len(rec.data)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	bodyAt := len(dst)
	dst = append(dst, rec.kind)
	dst = binary.BigEndian.AppendUint64(dst, rec.gen)
	dst = binary.BigEndian.AppendUint64(dst, rec.file)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.off))
	dst = append(dst, rec.data...)
	binary.BigEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[bodyAt:], castagnoli))
	return dst
}

// decodeRecord parses one record from the head of b. It returns the
// record, the number of frame bytes consumed, and an error when the
// head of b is not a complete, well-formed record. The returned
// record's data aliases b. decodeRecord never panics on arbitrary
// input (FuzzLogRecord pins this).
func decodeRecord(b []byte) (record, int, error) {
	if len(b) < recHeaderLen {
		return record{}, 0, errShortRecord
	}
	body := binary.BigEndian.Uint32(b)
	if body < recBodyFixed || body > recBodyFixed+MaxRecordData {
		return record{}, 0, fmt.Errorf("%w: %d", errBadLength, body)
	}
	total := recHeaderLen + int(body)
	if len(b) < total {
		return record{}, 0, errShortRecord
	}
	crc := binary.BigEndian.Uint32(b[4:])
	payload := b[recHeaderLen:total]
	if crc32.Checksum(payload, castagnoli) != crc {
		return record{}, 0, errBadCRC
	}
	rec := record{
		kind: payload[0],
		gen:  binary.BigEndian.Uint64(payload[1:]),
		file: binary.BigEndian.Uint64(payload[9:]),
		off:  int64(binary.BigEndian.Uint64(payload[17:])),
		data: payload[recBodyFixed:],
	}
	if rec.kind != recKindWrite {
		return record{}, 0, fmt.Errorf("%w: %d", errBadKind, rec.kind)
	}
	if rec.off < 0 {
		return record{}, 0, errBadOffset
	}
	return rec, total, nil
}
