package pfsnet

import (
	"encoding/binary"
	"io"
	"net"
)

// BuffersWriter is the vectored-submission hook the wire path probes
// for before falling back to net.Buffers.WriteTo. A *net.TCPConn needs
// no hook (WriteTo reaches writev directly); conn wrappers that cannot
// see package net's internal buffersWriter interface — the faults
// injector's conn, for one — implement this method instead, apply their
// policy to the batch as a unit, and forward the buffers to the wrapped
// conn so the real writev still happens underneath.
//
// The contract mirrors net.Buffers.WriteTo: the implementation consumes
// *v and returns the total bytes written. It must not keep the buffers
// past its return: the caller reuses their memory at once.
type BuffersWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

// arenaMin is the size of a writer's first arena; a batch that outgrows
// it moves to one twice as large (or as large as it needs).
const arenaMin = 4 << 10

// vecWriter accumulates wire frames and submits them to the connection
// in one vectored write (writev on TCP). Each frame's header and payload
// are copied into the writer's arena, so consecutive frames form one
// iovec; a frame's data follows as iovecs of its own, one per piece,
// zero-copy. A flush hands the whole iovec list to the kernel in a
// single syscall.
//
// The writer belongs to one connection and owns its memory for life.
// A payload is copied before writeFrame returns, so the caller may reuse
// it at once. A frame's data is borrowed: its owner must not reuse it
// until the flush that carries it has returned. reserve lends the
// writer's own memory for data that a reply builds in place; that too
// is valid until the flush, which reuses it for the next batch. So the
// writer keeps one arena, grown to fit its largest batch.
type vecWriter struct {
	nc     io.Writer
	wm     *wireMetrics
	arena  []byte // this batch's headers, payloads and reserved data
	seg    int    // start of the open (not yet queued) segment
	bufs   net.Buffers
	out    net.Buffers // bufs as the flush's write consumes them
	frames int         // frames queued since the last flush
}

func newVecWriter(nc io.Writer, wm *wireMetrics) *vecWriter {
	return &vecWriter{nc: nc, wm: wm}
}

// closeSeg queues the arena's open segment as an iovec.
func (w *vecWriter) closeSeg() {
	if len(w.arena) > w.seg {
		w.bufs = append(w.bufs, w.arena[w.seg:len(w.arena):len(w.arena)])
		w.seg = len(w.arena)
	}
}

// ensure makes room for n more arena bytes. When the arena is full the
// writer moves to a larger one; the queued iovecs keep the old one alive
// until the flush.
func (w *vecWriter) ensure(n int) {
	if len(w.arena)+n <= cap(w.arena) {
		return
	}
	w.closeSeg()
	w.arena = make([]byte, 0, max(arenaMin, n, 2*cap(w.arena)))
	w.seg = 0
}

// reserve lends n bytes of the writer's memory for a frame's data. They
// are valid until the next flush, which reuses them.
func (w *vecWriter) reserve(n int) []byte {
	w.closeSeg()
	w.ensure(n)
	start := len(w.arena)
	w.arena = w.arena[:start+n]
	w.seg = start + n
	return w.arena[start : start+n : start+n]
}

// writeFrame queues one frame for the next flush: payload, then data,
// as one frame body. The payload is copied before it returns; data stays
// borrowed until the flush (nil when the frame has none).
func (w *vecWriter) writeFrame(tag uint64, op byte, payload, data []byte) error {
	if err := w.beginFrame(tag, op, 0, 0, payload, len(data)); err != nil {
		return err
	}
	w.borrow(data)
	return nil
}

// beginFrame queues one frame's header and payload for the next flush
// and announces dataLen bytes of data, which the caller adds right
// after with borrow, in as many pieces as it has. A nonzero tcID makes
// it a traced frame: tagTraceFlag set on the tag, {traceID,
// parentSpanID} written into the arena right behind the header. The
// payload is copied before it returns.
func (w *vecWriter) beginFrame(tag uint64, op byte, tcID, tcSpan uint64, payload []byte, dataLen int) error {
	var buf [13 + traceCtxSize]byte
	hdr := buf[:13]
	body := len(payload) + dataLen
	if tcID != 0 {
		hdr = buf[:]
		body += traceCtxSize
		tag |= tagTraceFlag
		binary.BigEndian.PutUint64(hdr[13:21], tcID)
		binary.BigEndian.PutUint64(hdr[21:29], tcSpan)
	}
	if body+9 > MaxMessage {
		return ErrTooLarge
	}
	putHeader(hdr, body, tag, op)
	w.ensure(len(hdr) + len(payload))
	w.arena = append(append(w.arena, hdr...), payload...)
	w.frames++
	return nil
}

// borrow adds a piece of the frame being queued as an iovec of its own,
// borrowed until the flush; an empty piece adds nothing. Only a client's
// borrowed bytes count as a copy avoided.
func (w *vecWriter) borrow(data []byte) {
	if len(data) == 0 {
		return
	}
	w.closeSeg()
	w.bufs = append(w.bufs, data)
	w.wm.onCopyAvoided(len(data))
}

// flush submits every queued frame in one vectored write and empties the
// batch, keeping its memory for the next. A no-op when nothing is queued.
func (w *vecWriter) flush() error {
	w.closeSeg()
	if len(w.bufs) == 0 {
		return nil
	}
	// WriteTo consumes the iovec list, looping until everything is
	// written or the conn errors; on error the conn is dead and the
	// caller tears it down, so the batch is emptied either way.
	// The consumed list is a field, not a local: a local's address
	// would escape through the interface call, one allocation a flush.
	var err error
	w.out = w.bufs
	if bw, ok := w.nc.(BuffersWriter); ok {
		_, err = bw.WriteBuffers(&w.out)
	} else {
		_, err = w.out.WriteTo(w.nc)
	}
	w.wm.onWritev(w.frames)
	w.bufs = w.bufs[:0]
	w.arena = w.arena[:0]
	w.seg, w.frames = 0, 0
	return err
}
