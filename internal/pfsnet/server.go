package pfsnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// server is the connection half shared by the metadata and data
// servers: the listener, the registry of open connections, and the one
// serve loop. The embedding server supplies dispatch, which executes one
// request and returns the reply opcode and pooled payload.
//
// Each connection runs to completion on the one goroutine that reads
// it: read a frame, execute it, queue the tagged reply, and put the
// queued replies on the wire in one writev only when the next read could
// block. Requests on one connection therefore execute in arrival order;
// concurrency comes from connections.
type server struct {
	ln        net.Listener
	ioTimeout time.Duration
	wm        *wireMetrics
	tracer    *obs.XTracer
	dispatch  func(op byte, payload []byte) (byte, []byte)
	connSeq   atomic.Int64 // per-connection trace-scope numbering

	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// listen binds addr, wraps the listener with the plan's connection
// faults for scope, and starts accepting connections. The other fields
// must be set before it is called.
func (s *server) listen(addr string, plan *faults.Plan, scope string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = plan.WrapListener(ln, scope)
	s.quit = make(chan struct{})
	s.conns = make(map[net.Conn]struct{})
	s.wg.Add(1)
	go s.accept()
	return nil
}

// Addr returns the server's listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// stop closes the listener, severs open client connections and waits
// for their goroutines. Only the first call does so and reports first;
// later calls return at once, so servers that a chaos run crashed can
// be closed again by a deferred cleanup.
func (s *server) stop() (first bool, err error) {
	s.closeOnce.Do(func() { close(s.quit); first = true })
	if !first {
		return false, nil
	}
	err = s.ln.Close()
	// Snapshot under the lock, sever outside it: Close on a TCP conn
	// can block, and handlers need connMu to unregister themselves.
	s.connMu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//lint:allow detmaprange severing connections; close order is immaterial
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return true, err
}

func (s *server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
				log.Printf("pfsnet: accept on %s: %v", s.Addr(), err)
				return
			}
		}
		// Register under connMu, unless stop has begun: a connection
		// accepted just before the listener closed but registered after
		// stop's snapshot would never be severed, and stop would wait on
		// its goroutine for as long as the client kept it open.
		s.connMu.Lock()
		select {
		case <-s.quit:
			s.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, connBufSize)
	if serverHandshake(conn, br) != nil {
		return
	}
	s.servePipelined(conn, br, fmt.Sprintf("conn%d", s.connSeq.Add(1)))
}

// servePipelined serves a connection to completion on this goroutine:
// read a frame, dispatch it inline, queue its tagged reply, and put the
// queued replies on the wire only when the next read could block. A
// pipelined burst — a striped parent's chain, or many callers' requests
// sharing the connection — is read with one read(2), executed in order
// and answered with one writev.
func (s *server) servePipelined(conn net.Conn, br *bufio.Reader, scope string) {
	vw := newVecWriter(conn, s.wm)
	defer vw.abandon()
	var pending []respCtx // traced replies queued since the last flush
	for {
		if !frameBuffered(br) {
			if s.flushReplies(conn, vw) != nil {
				return
			}
			pending = s.flushRespSpans(pending, scope)
			if s.ioTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(s.ioTimeout))
			}
		}
		fr, err := readFrame(br)
		if err != nil {
			return
		}
		var parsed time.Time
		if fr.tag&tagTraceFlag != 0 {
			fr.tag &^= tagTraceFlag
			if len(fr.payload) < traceCtxSize {
				// A context too short to exist is a protocol violation,
				// not a request — drop the connection.
				fr.release()
				return
			}
			fr.traced = true
			fr.tcID = binary.BigEndian.Uint64(fr.payload[:8])
			fr.tcSpan = binary.BigEndian.Uint64(fr.payload[8:16])
			parsed = time.Now()
		}
		s.wm.onRx(len(fr.payload))
		traced := s.tracer != nil && fr.traced
		var t0 time.Time
		if traced {
			t0 = time.Now()
			s.tracer.Span(fr.tcID, s.tracer.NewID(), fr.tcSpan, "queue-wait", scope, parsed, t0.Sub(parsed))
		}
		op, reply := s.dispatch(fr.op, fr.body())
		fr.release()
		if traced {
			now := time.Now()
			s.tracer.Span(fr.tcID, s.tracer.NewID(), fr.tcSpan, "store", scope, t0, now.Sub(t0))
			pending = append(pending, respCtx{fr.tcID, fr.tcSpan, now})
		}
		n := len(reply)
		if err := vw.writeFrame(fr.tag, op, reply, nil); err != nil {
			return
		}
		s.wm.onTx(n)
	}
}

// frameBuffered reports whether br already holds the whole next frame,
// so reading it cannot block on the socket. Part of a frame does not
// count: its rest may be slow to arrive, and the replies queued so far
// must not wait for it.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // buffered: no I/O, no error
	return n-4 >= int(binary.BigEndian.Uint32(hdr))
}

// flushReplies puts every reply queued on the connection on the wire in
// one submission, under the per-flush write deadline. A no-op when
// nothing is queued.
func (s *server) flushReplies(conn net.Conn, vw *vecWriter) error {
	if vw.frames == 0 {
		return nil
	}
	if s.ioTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
	}
	return vw.flush()
}

// respCtx is the trace context of a queued reply, held until the flush
// that actually puts it on the wire.
type respCtx struct {
	tcID, tcSpan uint64
	start        time.Time
}

// flushRespSpans closes one "respond" span per traced reply carried by
// the flush that just completed.
func (s *server) flushRespSpans(pending []respCtx, scope string) []respCtx {
	if len(pending) == 0 {
		return pending
	}
	now := time.Now()
	for _, rc := range pending {
		s.tracer.Span(rc.tcID, s.tracer.NewID(), rc.tcSpan, "respond", scope, rc.start, now.Sub(rc.start))
	}
	return pending[:0]
}
