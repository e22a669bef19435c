package pfsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stripe"
)

// Client accesses a pfsnet file system: it asks the metadata server for
// file placement, splits reads and writes into per-server runs
// (stripe.Layout.AppendRuns: each server's region of the request, cut
// only at flagged fragments when a threshold is configured and at
// stripe.MaxRun), and issues each server's runs as one group, one frame
// per run, all servers concurrently.
//
// Each group runs to completion on one goroutine, the caller's own for
// a request that reaches one server. It checks an idle connection to the
// server out of a per-address pool (or dials one), writes the group's
// frames with one writev — frame headers and payloads packed into the
// connection's arena, each run's pieces of write data referenced in
// place — reads the replies in order, scattering read data straight
// into the run's pieces of the caller's buffer, and hands the connection
// back. Concurrent callers use separate
// connections, so a server's pool holds as many as the peak number of
// groups in flight to it. Each connection owns its wire memory (DESIGN
// §11): requests are encoded into its scratch buffer and copied into its
// writer's arena, and replies are read into its own buffer, valid until
// its next read. A write's data is not copied at all: its frame borrows
// the caller's buffer, which is free again once the caller's own writev
// has returned.
type Client struct {
	metaAddr string
	// FragmentThreshold enables iBridge client-side flagging when > 0.
	FragmentThreshold int64
	// RandomThreshold flags whole small requests as regular random.
	RandomThreshold int64
	// Obs, when set before the first request, receives wire-level
	// metrics under "pfsnet.client.*" (frames, bytes, in-flight depth,
	// writev batching) and the resilience metrics (retries,
	// deadline_exceeded, breaker state), and each data server's latency
	// histograms "pfsnet.client.server.<addr>.<read|write|flush>".
	Obs *obs.Registry
	// Tracer, when set before the first request, records a parent span
	// per ReadAt/WriteAt and propagates its {traceID, parentSpanID}
	// context to data servers on every data frame (tagTraceFlag); without
	// a tracer no frame carries a context. Nil costs one pointer test per
	// request.
	Tracer *obs.XTracer
	// IOTimeout bounds each dial and the hello that follows it, each
	// flush of a group's frames and each reply read: a server that
	// leaves a reply unanswered that long has its connection declared
	// dead with ErrDeadline. 0 disables I/O deadlines.
	IOTimeout time.Duration
	// FaultPlan, when set before the first request, injects the plan's
	// connection faults into every connection this client dials, under
	// the scope "client", so a scoped clause can target this client's
	// connections and leave the servers' alone. Its seed also seeds the
	// retry jitter, so two chaos runs sleep identically.
	FaultPlan *faults.Plan

	// retries is the number of resends of a server's group after
	// transport failures (send says when a resend is safe): maxRetries,
	// unless a test isolates one mechanism.
	retries int

	attempts  atomic.Uint64 // retry-jitter sequence
	openCount atomic.Int64  // breakers currently open, for the gauge
	inflight  atomic.Int64  // requests inside a round trip, for the gauge

	// mu guards the pool: one peer per server address, metadata server
	// included, and the closed flag.
	mu     sync.Mutex
	wm     *wireMetrics
	rm     *resilienceMetrics
	peers  map[string]*peer
	closed bool
}

// The resilience policy. A server's group is resent up to maxRetries
// times after transport failures, the pause before each resend doubling
// from retryBackoff up to retryBackoffMax; breakerThreshold consecutive
// transport failures open the server's breaker.
const (
	maxRetries       = 2
	retryBackoff     = 2 * time.Millisecond
	retryBackoffMax  = 100 * time.Millisecond
	breakerThreshold = 4
)

// peer is the client's state for one server address: the breaker, the
// metric sinks (all set when the peer is created) and the idle
// connections, which Client.mu guards. A peer is never removed, so the
// pool knows every address it has dialled.
type peer struct {
	br   *breaker
	wm   *wireMetrics
	rm   *resilienceMetrics
	lm   *latencyMetrics // nil without Obs and for the metadata server
	idle []*conn         // the most recently returned goes out first
}

// conn is one pooled client connection. The caller that checked it out
// owns it outright: it queues a chain of request frames, puts them on
// the wire with one flush, and reads their replies, which the server
// sends in request order.
type conn struct {
	nc        net.Conn
	wm        *wireMetrics
	br        *bufio.Reader
	vw        *vecWriter
	ioTimeout time.Duration
	sent      uint64   // tag of the last request queued
	recvd     uint64   // tag of the last reply read
	hdr       [13]byte // a reply's frame header, then a read reply's length word
	scratch   []byte   // the request payload being encoded
	buf       []byte   // the last reply payload read, valid until the next
}

// connBufSize sizes both ends' frame readers. It is small on purpose:
// a fill takes at most this much of a large payload, and bufio reads the
// rest straight into the frame's destination (the connection's payload
// buffer, or a read's scatter buffer) instead of staging it here first.
const connBufSize = 16 << 10

// dial connects to addr and runs the hello, each within IOTimeout; the
// fault plan, when armed, injects its dial refusals and wraps the new
// connection. The settings are set before the first request, per the
// field contracts, so reading them unlocked is race-free.
func (c *Client) dial(addr string, wm *wireMetrics) (*conn, error) {
	nc, err := c.FaultPlan.Dial("client", "tcp", addr, c.IOTimeout)
	if err != nil {
		return nil, wrapTimeout(err)
	}
	cn := newConn(nc, wm, c.IOTimeout)
	if cn.ioTimeout > 0 {
		nc.SetDeadline(time.Now().Add(cn.ioTimeout))
	}
	if err := cn.hello(); err != nil {
		nc.Close()
		return nil, wrapTimeout(err)
	}
	if cn.ioTimeout > 0 {
		nc.SetDeadline(time.Time{})
	}
	return cn, nil
}

// newConn wraps a connected socket.
func newConn(nc net.Conn, wm *wireMetrics, ioTimeout time.Duration) *conn {
	return &conn{
		nc:        nc,
		wm:        wm,
		br:        bufio.NewReaderSize(nc, connBufSize),
		vw:        newVecWriter(nc, wm),
		ioTimeout: ioTimeout,
	}
}

// hello is the client half of the handshake: send opHello and wait for
// the answer. opOK means the server accepted the v2 hello (its payload
// echoes the version and is not re-checked); a peer that refuses the
// hello answers opError, which comes back as its remoteError.
func (c *conn) hello() error {
	if err := writeHello(c.nc, opHello); err != nil {
		return err
	}
	fr, err := readFrame(c.br, &c.buf)
	if err != nil {
		return err
	}
	_, err = finishReply(fr.op, fr.payload)
	return err
}

// queue adds one request frame to the next flush, tagged with the next
// tag; a nonzero tcID makes it a traced frame. The payload is copied
// before it returns. A write's frame carries the pieces of its run w
// behind the payload, each borrowed until the flush returns; w is nil
// for any other request.
func (c *conn) queue(op byte, tcID, tcSpan uint64, payload []byte, w *dataReq) error {
	c.sent++
	n := 0
	if w != nil {
		n = int(w.run.Length)
	}
	if err := c.vw.beginFrame(c.sent, op, tcID, tcSpan, payload, n); err != nil {
		return err
	}
	for at := 0; at < n; {
		piece := w.piece(int64(at))
		c.vw.borrow(piece)
		at += len(piece)
	}
	c.wm.onTx(len(payload) + n)
	return nil
}

// flush puts every queued frame on the wire in one writev, under the
// per-flush write deadline. Once it returns, no write can still read a
// frame's borrowed data.
func (c *conn) flush() error {
	if c.ioTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.ioTimeout))
	}
	return wrapTimeout(c.vw.flush())
}

// recv reads the reply to the oldest unanswered request: a server
// answers a connection's requests in order, so any other tag is a
// corrupt frame. A successful reply to the read r whose data fits r's
// run is read straight into its pieces and recv reports its length; any
// other reply comes back in the connection's buffer, valid until its
// next read. r is nil for any request but a read. A server's error reply
// is its remoteError; any other error leaves the connection unusable.
func (c *conn) recv(r *dataReq) ([]byte, int, error) {
	if c.ioTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.ioTimeout))
	}
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return nil, 0, wrapTimeout(wrapTruncated(err))
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 9 || n > MaxMessage {
		return nil, 0, ErrTooLarge
	}
	c.recvd++
	if tag := binary.BigEndian.Uint64(hdr[4:12]); tag != c.recvd {
		return nil, 0, fmt.Errorf("pfsnet: reply tag %d, want %d (%w)", tag, c.recvd, ErrCorruptFrame)
	}
	op := hdr[12]
	plen := int(n) - 9
	if r != nil && op == opOK && plen >= 4 && int64(plen-4) <= r.run.Length {
		dn, err := c.scatterInto(r, plen)
		if err != nil {
			return nil, 0, err
		}
		c.wm.onRx(plen)
		c.wm.onScatter(dn)
		return nil, dn, nil
	}
	payload := fit(&c.buf, plen)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, 0, wrapTimeout(wrapTruncated(err))
	}
	c.wm.onRx(plen)
	reply, err := finishReply(op, payload)
	return reply, 0, err
}

// scatterInto reads a read-reply payload (u32 length + data) of plen
// bytes directly into the pieces of r's run, in order, bypassing the
// connection's buffer, and returns the data length. The caller
// guarantees plen-4 fits the run.
func (c *conn) scatterInto(r *dataReq, plen int) (int, error) {
	lp := c.hdr[:4]
	if _, err := io.ReadFull(c.br, lp); err != nil {
		return 0, wrapTimeout(wrapTruncated(err))
	}
	dn := int(binary.BigEndian.Uint32(lp))
	if dn != plen-4 {
		return 0, fmt.Errorf("pfsnet: read reply blob of %d bytes does not fill its frame (%w)", dn, ErrCorruptFrame)
	}
	for at := 0; at < dn; {
		piece := r.piece(int64(at))
		piece = piece[:min(len(piece), dn-at)]
		if _, err := io.ReadFull(c.br, piece); err != nil {
			return 0, wrapTimeout(wrapTruncated(err))
		}
		at += len(piece)
	}
	return dn, nil
}

// call performs one request/reply exchange. The reply is valid until
// the connection's next read.
func (c *conn) call(op byte, payload []byte) ([]byte, error) {
	err := c.queue(op, 0, 0, payload, nil)
	if err == nil {
		err = c.flush()
	}
	if err != nil {
		return nil, err
	}
	reply, _, err := c.recv(nil)
	return reply, err
}

// close shuts the connection down.
func (c *conn) close() { c.nc.Close() }

// finishReply maps a reply frame to (payload, error).
func finishReply(op byte, payload []byte) ([]byte, error) {
	switch op {
	case opOK:
		return payload, nil
	case opError:
		return nil, replyError(payload)
	default:
		return nil, fmt.Errorf("pfsnet: unexpected reply opcode %d (%w)", op, ErrCorruptFrame)
	}
}

// File is an open pfsnet file handle.
type File struct {
	ID      uint64
	Name    string
	Size    int64
	layout  stripe.Layout
	servers []string
}

// Layout returns the file's striping layout.
func (f *File) Layout() stripe.Layout { return f.layout }

// NewClient returns a client of the file system whose metadata server is
// at metaAddr, under the resilience policy (bounded retries with
// backoff, per-server breaker; no deadlines unless IOTimeout is set).
func NewClient(metaAddr string) *Client {
	return &Client{metaAddr: metaAddr, retries: maxRetries, peers: make(map[string]*peer)}
}

// NewIBridgeClient returns a client with fragment flagging enabled at the
// given thresholds (20 KB in the paper).
func NewIBridgeClient(metaAddr string, fragmentThreshold, randomThreshold int64) *Client {
	c := NewClient(metaAddr)
	c.FragmentThreshold = fragmentThreshold
	c.RandomThreshold = randomThreshold
	return c
}

// Close closes every idle connection at once; a connection checked out
// at the time is closed when its caller hands it back, never re-pooled.
// It always returns nil.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, p := range c.peers {
		for _, cn := range p.idle {
			cn.close()
		}
		p.idle = nil
	}
	return nil
}

// checkout returns addr's peer and one of its idle connections (nil when
// none is idle), resolving both under one acquisition of c.mu. The
// first peer resolves the client's metric sinks, which every peer
// shares; each data server's peer resolves its own latency histograms.
func (c *Client) checkout(addr string) (*peer, *conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.peers[addr]
	if p == nil {
		if c.wm == nil && c.Obs != nil {
			c.wm = newClientWireMetrics(c.Obs)
			c.rm = newResilienceMetrics(c.Obs)
		}
		p = &peer{br: &breaker{}, wm: c.wm, rm: c.rm}
		if addr != c.metaAddr {
			p.lm = newLatencyMetrics(c.Obs, addr)
		}
		c.peers[addr] = p
	}
	n := len(p.idle)
	if n == 0 {
		return p, nil
	}
	cn := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return p, cn
}

// checkin returns a healthy connection to its peer's idle pool, or
// closes it when the client has been closed. A nil cn is a no-op.
func (c *Client) checkin(p *peer, cn *conn) {
	if cn == nil {
		return
	}
	c.mu.Lock()
	closed := c.closed
	if !closed {
		p.idle = append(p.idle, cn)
	}
	c.mu.Unlock()
	if closed {
		cn.close()
	}
}

// discard closes a connection that failed, and every idle one to the
// same server with it: they share its fate (a restarted server has
// reset them all), and a retry must dial afresh instead of drawing
// another stale one.
func (c *Client) discard(p *peer, cn *conn) {
	c.mu.Lock()
	idle := p.idle
	p.idle = nil
	c.mu.Unlock()
	cn.close()
	for _, ic := range idle {
		ic.close()
	}
}

// parentReq is the per-ReadAt/WriteAt context threaded through the
// fan-out: the trace ids propagated to servers and the start of the
// client's parent span. Nil without a tracer.
type parentReq struct {
	op    string
	class string
	trace uint64
	span  uint64
	start time.Time
}

// startParent opens the per-request context, or returns nil when no
// tracer is set.
func (c *Client) startParent(op, class string) *parentReq {
	if c.Tracer == nil {
		return nil
	}
	return &parentReq{op: op, class: class, trace: c.Tracer.NewID(), span: c.Tracer.NewID(), start: time.Now()}
}

// finishParent closes the per-request context by emitting the client's
// parent span.
func (c *Client) finishParent(pr *parentReq) {
	if pr == nil {
		return
	}
	c.Tracer.Span(pr.trace, pr.span, 0, pr.op, pr.class, pr.start, time.Since(pr.start))
}

// dataReq is one request of a server's group. A read or write covers a
// run (stripe.Layout.AppendRuns), a range of the server's object whose
// bytes lie in buf, the caller's buffer from the run's first file offset
// on, a unit at a time: each piece ends at a unit boundary, and the next
// starts Unit·Servers bytes after the one before in the file. A write's
// frame borrows the pieces and a read's reply scatters into them. Any
// other request's non-empty reply is copied to reply before the
// connection goes back to the pool. done marks a request answered (or
// refused by the server), so no later attempt resends it.
type dataReq struct {
	run    stripe.Sub
	layout stripe.Layout
	buf    []byte
	reply  []byte
	done   bool
}

// piece returns the caller's bytes of the run from its byte at on, to
// the end of the unit they lie in or of the run.
func (r *dataReq) piece(at int64) []byte {
	unit := r.layout.Unit
	pos := r.run.ServerOff%unit + at // from the start of the run's first unit
	from := at + pos/unit*unit*int64(r.layout.Servers-1)
	return r.buf[from : from+min(unit-pos%unit, r.run.Length-at)]
}

// send issues one data server's group of requests — a lone request is a
// group of one — under the client's resilience policy. Each attempt
// checks a connection to the server out of the pool, writes every
// still-unanswered request as one chain with one writev, and reads
// their replies in order. A transport failure discards the connection
// and the server's idle ones, backs off (bounded exponential,
// deterministic jitter) and resends only the requests it left
// unanswered, up to maxRetries resends. A resent read is always safe.
// A resent write is safe only while no other writer touches its range:
// the server may have applied the first attempt before the connection
// failed, and the resend then lands over any later write to the range
// (ROADMAP item 19 will test this). Server-reported (remote) errors are never resent: the server
// answered, which proves it alive. The breaker sees one outcome per
// attempt, so while it is open one caller's whole group is the probe
// and the other callers fail fast with ErrServerDown.
//
// encode appends a request's payload to the connection's scratch
// buffer, which the writer copies at once, so one buffer serves every
// request of the chain. It takes the request by value: a pointer passed
// to a func value escapes, and the group's requests would leave the
// caller's stack. A write's pieces ride behind the payload
// borrowed, and are free again once the attempt's flush has returned.
func (c *Client) send(addr string, op byte, reqs []dataReq, encode func(b []byte, r dataReq) []byte, pr *parentReq) error {
	var tcID, tcSpan uint64
	if pr != nil {
		tcID, tcSpan = pr.trace, pr.span
	}
	var first, lastErr error // first remote or decode error; last transport failure
	for attempt := 0; ; attempt++ {
		p, cn := c.checkout(addr)
		probe, err := p.br.acquire(addr)
		if err != nil {
			c.checkin(p, cn)
			p.rm.onFastFail()
			lastErr = err
			break
		}
		var t0 time.Time
		if p.lm != nil {
			t0 = time.Now()
		}
		if cn == nil {
			cn, err = c.dial(addr, p.wm)
		}
		if err == nil {
			queued := 0
			for i := range reqs {
				if !reqs[i].done && err == nil {
					var wr *dataReq // a write's frame carries its run's pieces
					if op == opWrite {
						wr = &reqs[i]
					}
					cn.scratch = encode(cn.scratch[:0], reqs[i])
					err = cn.queue(op, tcID, tcSpan, cn.scratch, wr)
					queued++
				}
			}
			c.trackInflight(p.wm, queued)
			if err == nil {
				err = cn.flush()
			}
			for i := 0; err == nil && i < len(reqs); i++ {
				if reqs[i].done {
					continue
				}
				var rd *dataReq // a read's reply fills its run's pieces
				if op == opRead {
					rd = &reqs[i]
				}
				reply, n, cerr := cn.recv(rd)
				if _, isRemote := cerr.(remoteError); cerr != nil && !isRemote {
					err = cerr // transport failure: resend on the next attempt
					continue
				}
				reqs[i].done = true
				if cerr == nil {
					p.lm.observe(op, t0)
				}
				if cerr == nil && rd != nil {
					cerr = finishRead(reply, n, rd)
				} else if cerr == nil && len(reply) > 0 {
					reqs[i].reply = bytes.Clone(reply) // the connection's next read reuses reply
				}
				if cerr != nil && first == nil {
					first = cerr
				}
			}
			c.trackInflight(p.wm, -queued)
			if err != nil {
				c.discard(p, cn)
			} else {
				c.checkin(p, cn)
			}
		}
		c.recordOutcome(p.br, p.rm, probe, err == nil)
		if err == nil {
			return first
		}
		if errors.Is(err, ErrDeadline) {
			p.rm.onDeadline()
		}
		lastErr = err
		if attempt >= c.retries {
			break
		}
		p.rm.onRetry()
		time.Sleep(c.backoffDelay(attempt))
	}
	return lastErr
}

// trackInflight moves the in-flight gauge by n requests.
func (c *Client) trackInflight(wm *wireMetrics, n int) {
	if wm != nil {
		wm.setInflight(int(c.inflight.Add(int64(n))))
	}
}

// recordOutcome feeds an attempt result to the breaker and keeps the
// open-breaker metrics in step with its state transitions.
func (c *Client) recordOutcome(b *breaker, rm *resilienceMetrics, probe, ok bool) {
	opened, closed := b.record(probe, ok)
	if opened {
		rm.onOpen(c.openCount.Add(1))
	}
	if closed {
		rm.onClose(c.openCount.Add(-1))
	}
}

// backoffDelay computes the pause before the retry following attempt
// (0-based): retryBackoff·2^attempt capped at retryBackoffMax, plus
// deterministic jitter of up to half the step drawn from the fault
// plan's seed and a global attempt sequence — bounded exponential
// backoff whose timing is a pure function of the client's failure
// history.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := min(retryBackoff<<min(attempt, 20), retryBackoffMax)
	n := c.attempts.Add(1)
	jitter := time.Duration(faults.Mix64(c.FaultPlan.Seed()^n) % uint64(d/2+1))
	return d + jitter
}

// fileFromReply decodes a Create/Open reply: id, size, unit and the
// data server list.
func fileFromReply(name string, payload []byte) (*File, error) {
	d := dec{b: payload}
	f := &File{Name: name}
	f.ID = d.u64()
	f.Size = d.i64()
	unit := d.i64()
	n := d.u32()
	for i := uint32(0); i < n; i++ {
		f.servers = append(f.servers, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	f.layout = stripe.Layout{Unit: unit, Servers: len(f.servers)}
	return f, f.layout.Validate()
}

// metaFile performs one Create or Open on a pooled connection to the
// metadata server and decodes the file it replies with before the
// connection goes back to the pool. A transport failure discards the
// connection, so the next call redials instead of failing forever
// against a dead socket.
func (c *Client) metaFile(op byte, name string, payload []byte) (*File, error) {
	p, cn := c.checkout(c.metaAddr)
	if cn == nil {
		var err error
		if cn, err = c.dial(c.metaAddr, p.wm); err != nil {
			return nil, err
		}
	}
	reply, err := cn.call(op, payload)
	if _, isRemote := err.(remoteError); err != nil && !isRemote {
		c.discard(p, cn)
		return nil, err
	}
	var f *File
	if err == nil {
		f, err = fileFromReply(name, reply)
	}
	c.checkin(p, cn)
	return f, err
}

// Create creates a file of the given size.
func (c *Client) Create(name string, size int64) (*File, error) {
	var e enc
	e.str(name)
	e.i64(size)
	return c.metaFile(opCreate, name, e.b)
}

// Open opens an existing file.
func (c *Client) Open(name string) (*File, error) {
	var e enc
	e.str(name)
	return c.metaFile(opOpen, name, e.b)
}

// writeHdrSize is the encoded size of a write request ahead of its
// data: file u64 + off i64 + flags u8 + blob length prefix u32.
const writeHdrSize = 8 + 8 + 1 + 4

// appendWrite appends the header of a write of length bytes at the
// server offset off to b; flagged sends it to the fragment log. The data
// is not copied: the frame carries the caller's bytes right behind this
// header (conn.queue).
func appendWrite(b []byte, f *File, off, length int64, flagged bool) []byte {
	e := enc{b: b}
	e.u64(f.ID)
	e.i64(off)
	var flags byte
	if flagged {
		flags |= 1
	}
	e.u8(flags)
	e.u32(uint32(length))
	return e.b
}

// appendRead appends the payload of a read of length bytes at the
// server offset off to b.
func appendRead(b []byte, f *File, off, length int64) []byte {
	e := enc{b: b}
	e.u64(f.ID)
	e.i64(off)
	e.i64(length)
	return e.b
}

// WriteAt writes p at offset off, striping it over the data servers. It
// is synchronous: it returns once every data server has acknowledged its
// sub-requests.
func (c *Client) WriteAt(f *File, off int64, p []byte) error {
	if err := c.checkRange(f, off, int64(len(p))); err != nil || len(p) == 0 {
		return err
	}
	pr := c.startParent("WriteAt", "write")
	err := c.do(f, opWrite, off, p, pr)
	c.finishParent(pr)
	return err
}

// ReadAt reads len(p) bytes at offset off into p; the replies scatter
// directly into p.
func (c *Client) ReadAt(f *File, off int64, p []byte) error {
	if err := c.checkRange(f, off, int64(len(p))); err != nil || len(p) == 0 {
		return err
	}
	pr := c.startParent("ReadAt", "read")
	err := c.do(f, opRead, off, p, pr)
	c.finishParent(pr)
	return err
}

// do fans one ReadAt/WriteAt out: the request's runs come grouped by
// server, so each server's group is a subslice of them; each group goes
// to its server as one send, and the servers proceed in parallel. The
// first group runs on the calling goroutine, so it reaches its writev
// without waiting for a goroutine to be scheduled.
func (c *Client) do(f *File, op byte, off int64, p []byte, pr *parentReq) error {
	random := op == opWrite && c.RandomThreshold > 0 && int64(len(p)) < c.RandomThreshold
	runs, _ := f.layout.AppendRuns(nil, nil, off, int64(len(p)), c.FragmentThreshold)
	first := serverGroup(runs)
	if len(first) == len(runs) {
		return c.sendGroup(f, op, off, p, runs, random, pr)
	}
	errs := make(chan error, len(f.servers)-1) // one per other server at most
	spawned := 0
	for rest := runs[len(first):]; len(rest) > 0; spawned++ {
		g := serverGroup(rest)
		rest = rest[len(g):]
		go func() {
			errs <- c.sendGroup(f, op, off, p, g, random, pr)
		}()
	}
	err := c.sendGroup(f, op, off, p, first, random, pr)
	for range spawned {
		if gerr := <-errs; gerr != nil && err == nil {
			err = gerr
		}
	}
	return err
}

// serverGroup returns the leading runs, grouped by server, that go to
// the first one's server.
func serverGroup(runs []stripe.Sub) []stripe.Sub {
	n := 1
	for n < len(runs) && runs[n].Server == runs[0].Server {
		n++
	}
	return runs[:n]
}

// sendGroup sends one server's runs of the ReadAt/WriteAt of p at off,
// one frame per run: write frames borrow their pieces of p, read replies
// scatter into them.
func (c *Client) sendGroup(f *File, op byte, off int64, p []byte, runs []stripe.Sub, random bool, pr *parentReq) error {
	var buf [4]dataReq
	reqs := buf[:0]
	for _, run := range runs {
		reqs = append(reqs, dataReq{run: run, layout: f.layout, buf: p[run.FileOff-off:]})
	}
	return c.send(f.servers[runs[0].Server], op, reqs, func(b []byte, r dataReq) []byte {
		if op == opRead {
			return appendRead(b, f, r.run.ServerOff, r.run.Length)
		}
		return appendWrite(b, f, r.run.ServerOff, r.run.Length, random || r.run.Fragment)
	}, pr)
}

// finishRead validates the result of the read r: either n bytes were
// already scattered into its pieces (reply nil), or reply is the payload
// to decode and copy out, piece by piece.
func finishRead(reply []byte, n int, r *dataReq) error {
	want := r.run.Length
	if reply == nil {
		if int64(n) != want {
			return fmt.Errorf("pfsnet: short read: %d of %d bytes", n, want)
		}
		return nil
	}
	d := dec{b: reply}
	data := d.bytes()
	if d.err != nil {
		return d.err
	}
	if int64(len(data)) != want {
		return fmt.Errorf("pfsnet: short read: %d of %d bytes", len(data), want)
	}
	for at := 0; at < len(data); {
		at += copy(r.piece(int64(at)), data[at:])
	}
	return nil
}

// Flush asks every data server to drain its fragment log for f back to
// the object store (pass nil to flush everything on every server).
// Returns the total bytes written back.
func (c *Client) Flush(f *File) (int64, error) {
	var servers []string
	var id uint64
	if f != nil {
		servers = f.servers
		id = f.ID
	} else {
		// Without a file we have no server list; flush every data server
		// the pool has dialled.
		c.mu.Lock()
		for addr := range c.peers {
			if addr != c.metaAddr {
				servers = append(servers, addr)
			}
		}
		c.mu.Unlock()
		// Flush in a stable order so multi-server error/byte totals do
		// not depend on map iteration order.
		sort.Strings(servers)
	}
	var total int64
	for _, addr := range servers {
		var req [1]dataReq
		err := c.send(addr, opFlush, req[:], func(b []byte, _ dataReq) []byte {
			return binary.BigEndian.AppendUint64(b, id)
		}, nil)
		if err != nil {
			return total, err
		}
		d := dec{b: req[0].reply}
		total += d.i64()
		if d.err != nil {
			return total, d.err
		}
	}
	return total, nil
}

func (c *Client) checkRange(f *File, off, length int64) error {
	if off < 0 || length < 0 || length > f.Size-off {
		return fmt.Errorf("pfsnet: request [%d,+%d) outside file %q of size %d", off, length, f.Name, f.Size)
	}
	return nil
}
