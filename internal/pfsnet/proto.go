// Package pfsnet implements a real, runnable striped parallel file
// system over TCP: a metadata server that places files, data servers that
// store the per-server objects, and a client that performs the PVFS2-style
// decomposition of file requests into per-server sub-requests — including
// iBridge's client-side fragment flagging, carried on the wire exactly as
// the simulator models it.
//
// The data servers implement a functional analogue of the iBridge cache:
// sub-requests flagged as fragments (or small random requests) are
// appended to a log region with a mapping table, and reads are served
// from the log when mapped. This exercises the correctness of the
// fragment path end to end with real bytes; the performance analysis
// lives in the simulator (internal/cluster), since host disks are not the
// paper's devices.
//
// Wire format: every frame is a 4-byte big-endian length, an 8-byte
// request tag, a 1-byte opcode and an opcode-specific payload. The
// length counts the bytes after itself, so it is at least 9. Strings and
// byte blobs are 4-byte-length-prefixed; all integers are big-endian.
// The tag is chosen by the requester and echoed in the reply. A server
// answers a connection's requests in order, so a requester can pipeline
// many on one connection and match each reply to the oldest request
// still unanswered — the wire-level analogue of getting many
// independent sub-requests in flight per server at once.
//
// Handshake: a client opens every connection with an opHello frame (tag
// 0, payload u32 ProtoV2), and the server answers opOK carrying the same
// version. Any other first frame, or any other version, is answered with
// opError and the connection is closed. There is nothing to negotiate:
// the trace context (tagTraceFlag) is a plain part of the protocol
// (DESIGN §8).
package pfsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Opcodes.
const (
	opCreate byte = iota + 1
	opOpen
	opRead
	opWrite
	_ // 5, the retired opStat
	opFlush
	opOK
	opError
	opHello
	// Values 5, 10 and 11 are retired: a data server answers them with
	// opError, like any opcode it does not know.
)

// ProtoV2 is the wire protocol version, the one a hello carries. Every
// peer is built from this tree, so there is no other (DESIGN §8).
const ProtoV2 = 2

// tagTraceFlag marks a request frame carrying a trace context: the
// payload is prefixed with a traceCtxSize-byte {traceID u64,
// parentSpanID u64} context that the server strips before dispatch and
// attributes its spans to. Replies never carry a context and echo the
// tag with the flag cleared. Client tags are allocated sequentially
// from 1, so bit 63 is never an ordinary tag bit.
const tagTraceFlag = uint64(1) << 63

// traceCtxSize is the encoded size of the per-frame trace context:
// traceID u64 + parentSpanID u64.
const traceCtxSize = 16

// MaxMessage bounds a single message (sub-requests are at most a striping
// unit plus headers, but trace replays may write larger spans through a
// single server).
const MaxMessage = 64 << 20

// Sentinel errors. Callers and tests classify failures with errors.Is
// instead of string-matching.
var (
	// ErrCorruptFrame reports an inbound byte stream that is not a valid
	// frame: an impossible length header, a truncated payload, or an
	// opcode the protocol state machine cannot accept. ErrTooLarge and
	// ErrShort wrap it.
	ErrCorruptFrame = errors.New("pfsnet: corrupt frame")
	// ErrDeadline reports a frame exchange that exceeded the configured
	// I/O deadline (Client.IOTimeout / ServerConfig.IOTimeout).
	ErrDeadline = errors.New("pfsnet: i/o deadline exceeded")
	// ErrServerDown reports a request refused locally because the
	// per-server breaker has marked the server degraded after
	// consecutive transport failures.
	ErrServerDown = errors.New("pfsnet: server degraded")

	ErrTooLarge = fmt.Errorf("pfsnet: message exceeds MaxMessage (%w)", ErrCorruptFrame)
	ErrShort    = fmt.Errorf("pfsnet: short/corrupt message (%w)", ErrCorruptFrame)
)

// frame is one decoded wire frame. Its payload lies in the reading
// connection's buffer and is valid until that connection's next read.
type frame struct {
	tag     uint64
	op      byte
	payload []byte

	// Trace context carried by a tagTraceFlag-marked request; the server
	// strips it from payload and attributes its spans to it.
	traced bool
	tcID   uint64
	tcSpan uint64
}

// putHeader encodes a frame header whose length word covers n payload
// bytes (trace context included) into hdr[:13].
func putHeader(hdr []byte, n int, tag uint64, op byte) {
	binary.BigEndian.PutUint32(hdr[:4], uint32(n+9))
	binary.BigEndian.PutUint64(hdr[4:12], tag)
	hdr[12] = op
}

// writeFrame frames and sends one message. The writer is typically a
// *bufio.Writer: the header and payload land in its buffer and the
// caller decides when to flush (corking many frames into one syscall).
func writeFrame(w io.Writer, tag uint64, op byte, payload []byte) error {
	if len(payload)+9 > MaxMessage {
		return ErrTooLarge
	}
	var hdr [13]byte
	putHeader(hdr[:], len(payload), tag, op)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeHello sends the handshake frame — tag 0, op, payload u32 ProtoV2
// — in a single write: opHello from the client, opOK from the server.
func writeHello(w io.Writer, op byte) error {
	var b [13 + 4]byte
	putHeader(b[:], 4, 0, op)
	binary.BigEndian.PutUint32(b[13:], ProtoV2)
	_, err := w.Write(b[:])
	return err
}

// readFrame reads one frame, its payload into *buf, which it grows when
// the frame does not fit: a connection keeps its largest frame's buffer,
// and the payload is valid until the next read into it. The length word
// is checked before the rest of the header is read, so a frame too
// short to hold a tag and an opcode — a legacy v1 frame, for one — is
// refused at once instead of waiting for bytes that never come. The
// header is read into *buf as well, ahead of the payload that overwrites
// it: a local array would escape through r and cost an allocation per
// frame.
func readFrame(r io.Reader, buf *[]byte) (frame, error) {
	hdr := fit(buf, 13)
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 9 || n > MaxMessage {
		return frame{}, ErrTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return frame{}, wrapTruncated(err)
	}
	fr := frame{tag: binary.BigEndian.Uint64(hdr[4:12]), op: hdr[12]}
	fr.payload = fit(buf, int(n-9))
	if _, err := io.ReadFull(r, fr.payload); err != nil {
		return frame{}, wrapTruncated(err)
	}
	return fr, nil
}

// fit returns (*buf)[:n], first replacing *buf with a larger buffer when
// its capacity is short.
func fit(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// wrapTruncated maps a mid-frame EOF onto ErrCorruptFrame: the stream
// ended inside a frame the header promised, which is a truncated (and
// therefore corrupt) frame, not a clean close. Clean EOF at a frame
// boundary passes through untouched.
func wrapTruncated(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("truncated frame: %v (%w)", err, ErrCorruptFrame)
	}
	return err
}

// enc is a tiny append-style encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) str(v string) { e.bytes([]byte(v)) }

// dec is the matching decoder; it records the first error.
type dec struct {
	b   []byte
	err error
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.err = ErrShort
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = ErrShort
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = ErrShort
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint32(len(d.b)) < n {
		d.err = ErrShort
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string { return string(d.bytes()) }

// errorPayload encodes an error reply.
func errorPayload(err error) []byte {
	var e enc
	e.str(err.Error())
	return e.b
}

// remoteError is an error the server reported (as opposed to a transport
// failure): the request reached the server, so retrying is pointless.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return fmt.Sprintf("pfsnet: remote error: %s", e.msg) }

// replyError decodes an opError payload.
func replyError(payload []byte) error {
	d := dec{b: payload}
	msg := d.str()
	if d.err != nil {
		return d.err
	}
	return remoteError{msg: msg}
}

// serverHandshake reads the first frame of a fresh connection and
// answers it. An opHello carrying ProtoV2 gets opOK with the same
// version; any other frame or version gets opError, and the returned
// error tells the caller to close the connection.
func serverHandshake(nc net.Conn, br *bufio.Reader, buf *[]byte) error {
	fr, err := readFrame(br, buf)
	if err != nil {
		return err
	}
	d := dec{b: fr.payload}
	ver := d.u32()
	switch {
	case fr.op != opHello:
		err = fmt.Errorf("pfsnet: first frame has opcode %d, want a v%d hello", fr.op, ProtoV2)
	case d.err != nil || ver != ProtoV2:
		err = fmt.Errorf("pfsnet: hello for protocol version %d refused, this peer speaks only v%d", ver, ProtoV2)
	default:
		return writeHello(nc, opOK)
	}
	writeFrame(nc, fr.tag, opError, errorPayload(err))
	return err
}

// wrapTimeout maps net-level timeout errors onto ErrDeadline so callers
// can classify them with errors.Is; other errors pass through unchanged.
func wrapTimeout(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%v (%w)", err, ErrDeadline)
	}
	return err
}
