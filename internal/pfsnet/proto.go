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
// Wire format, protocol v1: every message is a 4-byte big-endian length
// followed by a 1-byte opcode and an opcode-specific payload. Strings and
// byte blobs are 4-byte-length-prefixed. All integers are big-endian.
//
// Protocol v2 (negotiated at connect time, see below) inserts an 8-byte
// request tag between the length and the opcode. The tag is chosen by
// the requester and echoed verbatim in the reply, which lets many
// requests multiplex over one connection with out-of-order replies —
// the wire-level analogue of getting many independent sub-requests in
// flight per server at once.
//
// Negotiation: a v2 client opens every connection by sending a v1-framed
// opHello carrying its maximum supported version. A v2 server replies
// opOK with the agreed version (the minimum of the two maxima) and both
// sides switch framing; a v1 server rejects the unknown opcode with
// opError, which the client takes as "v1 peer" and falls back. A v1
// client never sends opHello, so a v2 server simply keeps speaking v1 on
// that connection.
//
// Feature negotiation rides the same hello: a client may append a u32
// feature bitmask to the hello payload, and a feature-aware server
// answers with a second u32 of the agreed set. Because frame decoders
// ignore trailing payload bytes, peers that predate features simply
// never see the word and the set degrades to empty — the same
// transparent-fallback story as the version itself. The only feature
// today is featTrace, the per-frame trace-context extension (see
// DESIGN §12).
package pfsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"
)

// Opcodes.
const (
	opCreate byte = iota + 1
	opOpen
	opRead
	opWrite
	opStat
	opFlush
	opOK
	opError
	opHello
	// opCancel tells a v2 data server that the requester abandoned a
	// tag (payload: target tag u64). Fire-and-forget: it never receives
	// a reply, and a client only sends it for a tag it has already
	// abandoned, so a server that dropped the target unanswered would be
	// indistinguishable from the reply losing the race. This server
	// executes each connection in arrival order, so the target has
	// always run when the cancel is read: the frame is counted and
	// consumed (DESIGN §13). Only valid on connections that negotiated
	// featCancel.
	opCancel
	// opReadDirect is opRead with a routing hint: the requester is a
	// hedge re-issue and the server should prefer its direct (store)
	// path over any queue-optimised handling. Semantically identical to
	// opRead — the fragment-log overlay still applies, because hedged
	// reads must return the same bytes as the original. Only sent on
	// connections that negotiated featCancel (which implies a server new
	// enough to know the opcode).
	opReadDirect
)

// Wire protocol versions.
const (
	ProtoV1 = 1 // one frame per message, in-order request/reply
	ProtoV2 = 2 // tagged frames, multiplexed, out-of-order replies

	maxProtoVersion = ProtoV2
)

// Feature bits, exchanged as an optional second u32 in the opHello
// payload and its opOK reply. Decoders ignore trailing payload bytes,
// so a features word appended by a new peer is invisible to an old
// one: an old server replies with the bare agreed version (no
// features), an old client never sends the word, and in both cases
// the feature set degrades to empty. A feature is active on a
// connection only when both sides advertised it.
const (
	// featTrace enables the trace-context frame extension: v2 request
	// frames whose tag carries tagTraceFlag are prefixed with a
	// traceCtxSize-byte {traceID u64, parentSpanID u64} context that the
	// server strips before dispatch and attributes its spans to.
	// Replies never carry a context and echo the tag with the flag
	// cleared.
	featTrace uint32 = 1 << 0

	// featCancel enables the hedged-read wire extension: the opCancel
	// fire-and-forget frame (never answered) and the opReadDirect routing
	// hint. Hedging clients advertise it; servers accept it unless
	// configured as legacy peers (ServerConfig.DisableCancel). Against a
	// peer that did not negotiate it the client degrades to plain
	// re-issued opRead hedges with no cancellation, and against v1 peers
	// to no hedging at all.
	featCancel uint32 = 1 << 1
)

// tagTraceFlag marks a v2 request frame carrying a trace context.
// Client tags are allocated sequentially from 1, so bit 63 is never an
// ordinary tag bit.
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

// message is a decoded v1 frame.
type message struct {
	op      byte
	payload []byte
}

// writeMessage frames and sends op+payload in v1 framing.
func writeMessage(w io.Writer, op byte, payload []byte) error {
	return writeFrame(w, ProtoV1, 0, op, payload)
}

// readMessage reads one v1 frame, allocating the payload (the pooled
// path is readFrame; this form is kept for tests and fuzzing against
// arbitrary readers).
func readMessage(r io.Reader) (message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > MaxMessage {
		return message{}, ErrTooLarge
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return message{}, err
	}
	return message{op: hdr[4], payload: payload}, nil
}

// frame is one decoded wire frame. In v1 framing the tag is always 0.
// The payload is pool-backed: call release (or putBuf) once the bytes
// have been consumed.
type frame struct {
	tag     uint64
	op      byte
	payload []byte

	// Trace context carried by a tagTraceFlag-marked request; the server
	// attributes its spans to it. The context bytes stay inside payload —
	// body strips them as a view — because putBuf only accepts buffers
	// with their original pooled capacity.
	traced bool
	tcID   uint64
	tcSpan uint64
}

// release returns the payload buffer to the pool.
func (f *frame) release() {
	putBuf(f.payload)
	f.payload = nil
}

// body returns the request payload with any trace-context prefix
// stripped. The result aliases f.payload; release the frame, not the
// body.
func (f *frame) body() []byte {
	if f.traced {
		return f.payload[traceCtxSize:]
	}
	return f.payload
}

// writeFrame frames and sends one message at the given protocol version.
// The writer is typically a *bufio.Writer: the header and payload land in
// its buffer and the caller decides when to flush (corking many frames
// into one syscall).
func writeFrame(w io.Writer, ver int, tag uint64, op byte, payload []byte) error {
	var hdr [13]byte
	var hn int
	if ver >= ProtoV2 {
		if len(payload)+9 > MaxMessage {
			return ErrTooLarge
		}
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+9))
		binary.BigEndian.PutUint64(hdr[4:12], tag)
		hdr[12] = op
		hn = 13
	} else {
		if len(payload)+1 > MaxMessage {
			return ErrTooLarge
		}
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
		hdr[4] = op
		hn = 5
	}
	if _, err := w.Write(hdr[:hn]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeFrameCtx frames and sends one v2 request carrying a trace
// context: the tag goes out with tagTraceFlag set and the payload is
// preceded by the 16-byte {traceID, parentSpanID} context. Only valid
// on connections that negotiated featTrace.
func writeFrameCtx(w io.Writer, tag uint64, op byte, tcID, tcSpan uint64, payload []byte) error {
	var hdr [13 + traceCtxSize]byte
	if len(payload)+9+traceCtxSize > MaxMessage {
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+9+traceCtxSize))
	//lint:allow featgate encode helper below the gate: callers reach writeFrameCtx only with a tcID set under a featTrace check (DESIGN §12)
	binary.BigEndian.PutUint64(hdr[4:12], tag|tagTraceFlag)
	hdr[12] = op
	binary.BigEndian.PutUint64(hdr[13:21], tcID)
	binary.BigEndian.PutUint64(hdr[21:29], tcSpan)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame at the given protocol version into a pooled
// payload buffer.
func readFrame(r io.Reader, ver int) (frame, error) {
	var hdr [13]byte
	hn := 5
	if ver >= ProtoV2 {
		hn = 13
	}
	if _, err := io.ReadFull(r, hdr[:hn]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	overhead := uint32(hn - 4)
	if n < overhead || n > MaxMessage {
		return frame{}, ErrTooLarge
	}
	var fr frame
	if ver >= ProtoV2 {
		fr.tag = binary.BigEndian.Uint64(hdr[4:12])
		fr.op = hdr[12]
	} else {
		fr.op = hdr[4]
	}
	fr.payload = getBuf(int(n - overhead))
	if _, err := io.ReadFull(r, fr.payload); err != nil {
		fr.release()
		return frame{}, wrapTruncated(err)
	}
	return fr, nil
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

// Payload buffer pools, in power-of-two size classes from 1 KB to 64 MB
// (≥ MaxMessage). Steady-state reads and writes recycle their payload and
// encode buffers through these instead of allocating per message.
const (
	minBufClass = 10 // 1 KB
	maxBufClass = 26 // 64 MB
)

var bufPools [maxBufClass - minBufClass + 1]sync.Pool

// getBuf returns a length-n buffer with pooled backing storage.
func getBuf(n int) []byte {
	if n > 1<<maxBufClass {
		return make([]byte, n)
	}
	c := minBufClass
	if n > 1<<minBufClass {
		c = bits.Len(uint(n - 1))
	}
	if p, _ := bufPools[c-minBufClass].Get().(*[]byte); p != nil {
		return (*p)[:n]
	}
	return make([]byte, n, 1<<c)
}

// putBuf returns a buffer obtained from getBuf to its size-class pool.
// nil, undersized, and oversized buffers are dropped silently (they are
// the legitimate non-pooled paths: empty frames, tiny test encoders,
// >64 MB one-offs). A buffer whose capacity falls in the pool's range
// but is not an exact power-of-two size class is *foreign*: it was not
// shaped by getBuf — typically an encoder that outgrew its class, or an
// ownership-transfer bug handing the pool somebody else's memory.
// Foreign buffers are rejected, not re-classed, and counted in
// pfsnet.pool.foreign_put so the churn shows up in metrics instead of
// as quiet heap garbage.
func putBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufClass || c > 1<<maxBufClass {
		return
	}
	if c&(c-1) != 0 {
		notePoolForeignPut()
		return
	}
	b = b[:0]
	bufPools[bits.Len(uint(c))-1-minBufClass].Put(&b)
}

// newEnc returns an encoder writing into a pooled buffer; ownership of
// the finished enc.b follows the wire ownership contract (DESIGN §11):
// hand it to an owning sink exactly once, or putBuf it yourself.
func newEnc() enc { return enc{b: getBuf(0)} }

// newEncN is newEnc with a capacity hint: the encoder starts in the
// size class that fits n bytes, so encoding n bytes never outgrows the
// class (outgrowing reallocates to a foreign capacity the pool must
// reject — see putBuf).
func newEncN(n int) enc { return enc{b: getBuf(n)[:0]} }

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

// errorPayload encodes an error reply into a pooled buffer.
func errorPayload(err error) []byte {
	e := newEnc()
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

// serverHandshake inspects the leading frame of a fresh connection. A
// v2-capable server intercepts an opHello, answers with the agreed
// version, and returns it; any other first frame means a v1 client, and
// the frame is handed back for normal dispatch. When maxProto caps the
// server at v1 the hello is likewise handed back, so the normal dispatch
// path rejects the unknown opcode exactly as a legacy server would.
//
// features is the server's advertised feature set. Feature words are
// only exchanged with clients that sent one: the reply to a bare
// {maxProto} hello is a bare {agreed}, byte-identical to what an older
// server would send, and the returned feats is then 0.
func serverHandshake(br *bufio.Reader, bw *bufio.Writer, maxProto int, features uint32) (ver int, feats uint32, first frame, hasFirst bool, err error) {
	fr, err := readFrame(br, ProtoV1)
	if err != nil {
		return 0, 0, frame{}, false, err
	}
	if fr.op != opHello || maxProto < ProtoV2 {
		return ProtoV1, 0, fr, true, nil
	}
	d := dec{b: fr.payload}
	clientMax := int(d.u32())
	var clientFeats uint32
	hasFeats := len(fr.payload) >= 8
	if hasFeats {
		clientFeats = d.u32()
	}
	fr.release()
	if d.err != nil {
		return 0, 0, frame{}, false, d.err
	}
	agreed := min(clientMax, maxProto)
	if agreed < ProtoV1 {
		agreed = ProtoV1
	}
	feats = clientFeats & features
	if agreed < ProtoV2 {
		feats = 0 // features are a v2 frame extension
	}
	e := newEnc()
	e.u32(uint32(agreed))
	if hasFeats {
		e.u32(feats)
	}
	werr := writeFrame(bw, ProtoV1, 0, opOK, e.b)
	putBuf(e.b)
	if werr != nil {
		return 0, 0, frame{}, false, werr
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, frame{}, false, err
	}
	return agreed, feats, frame{}, false, nil
}

// isTimeout reports whether err is a net-level deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// wrapTimeout maps net-level timeout errors onto ErrDeadline so callers
// can classify them with errors.Is; other errors pass through unchanged.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%v (%w)", err, ErrDeadline)
	}
	return err
}

// serveFrames runs a sequential request loop at the given protocol
// version: read a frame, dispatch it, reply with the echoed tag, flush.
// This is the whole server for v1 connections (which require in-order
// replies) and for low-rate services like the metadata server, where
// handler concurrency buys nothing. first, when non-nil, is a frame the
// handshake already read. ioTimeout, when positive, bounds each frame
// read and each reply write so a stalled or half-open peer cannot pin
// the handler goroutine forever (nc must be the underlying conn).
func serveFrames(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, ver int, first *frame, wm *wireMetrics, ioTimeout time.Duration, dispatch func(op byte, payload []byte) (byte, []byte)) {
	for {
		var fr frame
		if first != nil {
			fr, first = *first, nil
		} else {
			if ioTimeout > 0 {
				nc.SetReadDeadline(time.Now().Add(ioTimeout))
			}
			var err error
			fr, err = readFrame(br, ver)
			if err != nil {
				return
			}
		}
		wm.onRx(len(fr.payload))
		op, reply := dispatch(fr.op, fr.payload)
		fr.release()
		n := len(reply)
		if ioTimeout > 0 {
			nc.SetWriteDeadline(time.Now().Add(ioTimeout))
		}
		err := writeFrame(bw, ver, fr.tag, op, reply)
		putBuf(reply)
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		wm.onTx(n)
	}
}
