package pfsnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/sketch"
	"repro/internal/stripe"
)

// Client accesses a pfsnet file system: it asks the metadata server for
// file placement, decomposes reads and writes into per-server
// sub-requests (flagging fragments when a threshold is configured), and
// issues each server's sub-requests as one batch over the single
// connection it keeps to that server, all servers concurrently.
//
// Every connection is pipelined: a single writer goroutine drains a
// send queue into a vectored writer — frame headers and small payloads
// packed into pooled arena chunks, large payloads referenced in place —
// and submits each burst with one writev, while a single reader
// goroutine demuxes tagged replies to the waiting callers (scattering
// read data straight into the caller's buffer). Sharing the connection
// is what lets the corked writer batch concurrent requests into single
// writev submissions. Payload buffers follow the wire ownership
// contract (DESIGN §11): the caller encodes into a pooled buffer and
// hands it to the connection, which releases it exactly once. A write's
// data is not copied at all: its frame borrows the caller's buffer,
// which WriteAt holds until no writev can still be reading it.
type Client struct {
	metaAddr string
	// FragmentThreshold enables iBridge client-side flagging when > 0.
	FragmentThreshold int64
	// RandomThreshold flags whole small requests as regular random.
	RandomThreshold int64
	// Obs, when set before the first request, receives wire-level
	// metrics under "pfsnet.client.*" (frames, bytes, in-flight depth,
	// send-queue wait, writev batching) and the resilience metrics
	// (retries, deadline_exceeded, breaker state). It also arms the
	// per-server latency sketches and their
	// "pfsnet.client.server.<addr>.<class>.{p50,p95,p99}" gauges.
	Obs *obs.Registry
	// Tracer, when set before the first request, records a parent span
	// per ReadAt/WriteAt and propagates its {traceID, parentSpanID}
	// context to data servers on every data frame (tagTraceFlag); without
	// a tracer no frame carries a context. Nil costs one pointer test per
	// request.
	Tracer *obs.XTracer
	// SlowLog, when set before the first request, receives one JSON
	// line per ReadAt/WriteAt whose latency exceeds the op class's
	// sketch-derived p99 (after slowLogMinSamples observations warm the
	// sketch), with per-fragment server timings — a "wide event" for
	// tail debugging.
	SlowLog io.Writer

	// DialTimeout bounds connection establishment, including the hello
	// (0 = no timeout).
	DialTimeout time.Duration
	// IOTimeout bounds each frame exchange on a connection: how long a
	// pending reply may remain unanswered before the connection is
	// declared dead with ErrDeadline. 0 disables I/O deadlines.
	IOTimeout time.Duration
	// RequestTimeout bounds one server's share of a request across all
	// retry attempts (0 = no bound beyond the per-attempt IOTimeout).
	RequestTimeout time.Duration
	// MaxRetries is the number of resends of a server's group of
	// idempotent data sub-requests after transport failures. NewClient
	// defaults it to 2; set -1 to disable retries.
	MaxRetries int
	// RetryBackoff is the base pause before the first retry; each
	// further attempt doubles it up to RetryBackoffMax, plus
	// deterministic jitter drawn from Seed. NewClient defaults these to
	// 2ms and 100ms.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// BreakerThreshold is the run of consecutive transport failures
	// after which a data server is marked degraded: further requests
	// fail fast with ErrServerDown while a single probe per window
	// checks for recovery. NewClient defaults it to 4; set -1 to
	// disable the breaker.
	BreakerThreshold int
	// Seed feeds the deterministic retry jitter (and is the knob that
	// makes two chaos runs sleep identically).
	Seed uint64
	// FaultPlan, when set before the first request, injects the plan's
	// connection faults into every connection this client dials;
	// FaultScope labels them (default "client"), so a scoped clause can
	// target this client's connections and leave the servers' alone.
	FaultPlan  *faults.Plan
	FaultScope string

	attempts  atomic.Uint64 // retry-jitter sequence
	openCount atomic.Int64  // breakers currently open, for the gauge

	mu       sync.Mutex
	wm       *wireMetrics
	rm       *resilienceMetrics
	meta     *conn
	data     map[string]*conn
	breakers map[string]*breaker

	// hintMu guards the T_i load-hint vector (server address → expected
	// service time, milliseconds) the metadata server broadcasts on
	// Create/Open replies; installed hints arm issue ordering, and cold
	// sketches fall back to them for its cost estimate.
	hintMu sync.Mutex
	hints  map[string]float64

	// latMu guards the lazily created latency sketches; slowMu
	// serializes SlowLog writes so concurrent slow events cannot
	// interleave JSON lines.
	latMu    sync.Mutex
	sketches map[latKey]*sketch.Sketch
	parentSk map[string]*sketch.Sketch
	slowMu   sync.Mutex
}

// Resilience defaults applied by NewClient. Overridable per client; -1
// disables the corresponding mechanism.
const (
	defaultMaxRetries       = 2
	defaultRetryBackoff     = 2 * time.Millisecond
	defaultRetryBackoffMax  = 100 * time.Millisecond
	defaultBreakerThreshold = 4
)

var errConnClosed = errors.New("pfsnet: connection closed")

// conn is one client connection. After the hello it runs a writer and a
// reader goroutine and multiplexes tagged calls.
type conn struct {
	nc        net.Conn
	wm        *wireMetrics
	br        *bufio.Reader
	ioTimeout time.Duration

	sendq   chan *wireCall
	dead    chan struct{}
	wdone   chan struct{} // closed when writeLoop has exited
	pendMu  sync.Mutex
	pending map[uint64]*wireCall
	nextTag uint64
	failed  error // set once, under pendMu, when the conn dies
}

// wireCall is one in-flight tagged request. start links calls through
// next: the chain is registered as a unit and the head alone crosses
// the send queue, so a server's group costs one channel operation and
// one flush however many sub-requests it holds.
type wireCall struct {
	tag     uint64
	op      byte
	payload []byte    // pooled; owned by the conn once started
	data    []byte    // borrowed; follows payload on the wire, never released
	next    *wireCall // rest of the chain
	enq     time.Time // for the queue-wait metric; zero when obs is off
	done    chan struct{}

	// tcID/tcSpan, when tcID is nonzero, make the writer emit this call
	// as a traced frame (trace context behind the header).
	tcID, tcSpan uint64

	// scatter, when non-nil, asks the reader to deposit a successful
	// read reply's data directly here instead of a pooled intermediate;
	// scattered reports it did, scatterN how many bytes.
	scatter   []byte
	scattered bool
	scatterN  int

	replyOp byte
	reply   []byte // pooled; the waiter releases it
	err     error
}

// connBufSize sizes both ends' frame readers. It is small on purpose:
// a fill takes at most this much of a large payload, and bufio reads the
// rest straight into the frame's destination (the pooled payload, or a
// read's scatter buffer) instead of staging it here first.
const connBufSize = 16 << 10

// dialOpts carries the per-client connection settings into dialConn.
type dialOpts struct {
	wm          *wireMetrics
	dialTimeout time.Duration
	ioTimeout   time.Duration
	plan        *faults.Plan
	scope       string
}

// dialOpts snapshots the client's connection settings (set before the
// first request, per the field contracts, so reading them unlocked is
// race-free).
func (c *Client) dialOpts(wm *wireMetrics) dialOpts {
	scope := c.FaultScope
	if scope == "" {
		scope = "client"
	}
	return dialOpts{
		wm:          wm,
		dialTimeout: c.DialTimeout,
		ioTimeout:   c.IOTimeout,
		plan:        c.FaultPlan,
		scope:       scope,
	}
}

// dialConn connects to addr, runs the hello and starts the pipeline.
// The dial is bounded by o.dialTimeout and the hello round trip by
// o.ioTimeout; a fault plan, when armed, injects its dial refusals and
// wraps the new connection.
func dialConn(addr string, o dialOpts) (*conn, error) {
	nc, err := o.plan.Dial(o.scope, "tcp", addr, o.dialTimeout)
	if err != nil {
		return nil, wrapTimeout(err)
	}
	c := newConn(nc, o)
	if c.ioTimeout > 0 {
		nc.SetDeadline(time.Now().Add(c.ioTimeout))
	}
	if err := c.hello(); err != nil {
		nc.Close()
		return nil, wrapTimeout(err)
	}
	if c.ioTimeout > 0 {
		nc.SetDeadline(time.Time{})
	}
	c.run()
	return c, nil
}

// newConn wraps a connected socket; run starts its pipeline.
func newConn(nc net.Conn, o dialOpts) *conn {
	return &conn{
		nc:        nc,
		wm:        o.wm,
		br:        bufio.NewReaderSize(nc, connBufSize),
		ioTimeout: o.ioTimeout,
		sendq:     make(chan *wireCall, 128),
		dead:      make(chan struct{}),
		wdone:     make(chan struct{}),
		pending:   make(map[uint64]*wireCall),
	}
}

// run starts the writer and reader goroutines.
func (c *conn) run() {
	go c.writeLoop()
	go c.readLoop()
}

// hello is the client half of the handshake: send opHello and wait for
// the answer. opOK means the server accepted the v2 hello (its payload
// echoes the version and is not re-checked); a peer that refuses the
// hello answers opError, which comes back as its remoteError.
func (c *conn) hello() error {
	if err := writeHello(c.nc, opHello); err != nil {
		return err
	}
	fr, err := readFrame(c.br)
	if err != nil {
		return err
	}
	reply, err := finishReply(fr.op, fr.payload)
	putBuf(reply)
	return err
}

// releaseChain returns every payload of a call chain to the pool.
func releaseChain(w *wireCall) {
	for ; w != nil; w = w.next {
		putBuf(w.payload)
		w.payload = nil
	}
}

// drainSendq releases the payloads of calls still queued when the conn
// dies, so a killed conn cannot race a caller that has already been
// failed by kill and moved on.
func drainSendq(sendq chan *wireCall) {
	for {
		select {
		case w := <-sendq:
			releaseChain(w)
		default:
			return
		}
	}
}

// writeLoop drains the send queue onto the wire through a vectored
// writer: frames accumulate in the vecWriter (headers and small payloads
// packed into arena chunks, large payloads referenced zero-copy) and
// each burst goes to the kernel in a single writev when the queue runs
// dry. The loop owns each queued call's payload (ownership transferred
// at start) and releases it exactly once — after the write,
// or on exit for calls still queued when the conn dies. It closes wdone
// last, once no write of its can be reading a call's borrowed data.
func (c *conn) writeLoop() {
	vw := newVecWriter(c.nc, c.wm)
	defer close(c.wdone)
	defer vw.abandon()
	defer drainSendq(c.sendq)
	for {
		select {
		case <-c.dead:
			return
		case w := <-c.sendq:
			for ; w != nil; w = w.next {
				c.wm.observeQueueWait(w.enq)
				n := len(w.payload) + len(w.data)
				var err error
				if w.tcID != 0 {
					err = vw.writeFrameCtx(w.tag, w.op, w.tcID, w.tcSpan, w.payload, w.data)
				} else {
					err = vw.writeFrame(w.tag, w.op, w.payload, w.data)
				}
				w.payload = nil
				if err != nil {
					releaseChain(w.next)
					c.kill(err)
					return
				}
				c.wm.onTx(n)
			}
			if len(c.sendq) == 0 {
				if c.ioTimeout > 0 {
					c.nc.SetWriteDeadline(time.Now().Add(c.ioTimeout))
				}
				if err := vw.flush(); err != nil {
					c.kill(wrapTimeout(err))
					return
				}
			}
		}
	}
}

// pendingCount returns the number of registered in-flight calls.
func (c *conn) pendingCount() int {
	c.pendMu.Lock()
	n := len(c.pending)
	c.pendMu.Unlock()
	return n
}

// readLoop demuxes tagged replies to their waiting callers, scattering
// read data directly into caller buffers when the call asked for it.
// With an I/O timeout configured it arms a read deadline whenever
// replies are outstanding: a deadline expiring with calls pending means
// the server has gone quiet mid-exchange, and the conn is killed with
// ErrDeadline so every waiter unblocks promptly instead of stalling
// forever.
func (c *conn) readLoop() {
	for {
		if c.ioTimeout > 0 {
			if c.pendingCount() > 0 {
				c.nc.SetReadDeadline(time.Now().Add(c.ioTimeout))
			} else {
				c.nc.SetReadDeadline(time.Time{})
			}
		}
		var hdr [13]byte
		if nr, err := io.ReadFull(c.br, hdr[:]); err != nil {
			if isTimeout(err) && nr == 0 && c.pendingCount() == 0 {
				// The deadline outlived the exchange it guarded; the conn
				// is idle and at a frame boundary, so keep serving it.
				continue
			}
			c.kill(wrapTimeout(wrapTruncated(err)))
			return
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n < 9 || n > MaxMessage {
			c.kill(ErrTooLarge)
			return
		}
		tag := binary.BigEndian.Uint64(hdr[4:12])
		op := hdr[12]
		plen := int(n) - 9
		// Claim the waiter before touching the payload: once the tag is
		// out of pending, kill can no longer race this goroutine for the
		// call, so scattering into the caller's buffer is single-writer
		// and done is closed exactly once.
		c.pendMu.Lock()
		w := c.pending[tag]
		delete(c.pending, tag)
		np := len(c.pending)
		c.pendMu.Unlock()
		if w != nil && w.scatter != nil && op == opOK && plen >= 4 && plen-4 <= len(w.scatter) {
			if err := c.scatterInto(w, plen); err != nil {
				w.err = err
				close(w.done)
				c.kill(err)
				return
			}
			c.wm.onRx(plen)
			c.wm.onScatter(w.scatterN)
			c.wm.setInflight(np)
			close(w.done)
			continue
		}
		payload := getBuf(plen)
		if _, err := io.ReadFull(c.br, payload); err != nil {
			putBuf(payload)
			err = wrapTimeout(wrapTruncated(err))
			if w != nil {
				w.err = err
				close(w.done)
			}
			c.kill(err)
			return
		}
		c.wm.onRx(plen)
		if w == nil {
			putBuf(payload) // reply to a tag nothing waits on
			continue
		}
		c.wm.setInflight(np)
		w.replyOp = op
		w.reply = payload
		close(w.done)
	}
}

// scatterInto reads a read-reply payload (u32 length + data) of plen
// bytes directly into w.scatter, bypassing the pooled intermediate. The
// caller guarantees plen-4 fits the scatter buffer.
func (c *conn) scatterInto(w *wireCall, plen int) error {
	var lp [4]byte
	if _, err := io.ReadFull(c.br, lp[:]); err != nil {
		return wrapTimeout(wrapTruncated(err))
	}
	dn := int(binary.BigEndian.Uint32(lp[:]))
	if dn != plen-4 {
		return fmt.Errorf("pfsnet: read reply blob of %d bytes does not fill its frame (%w)", dn, ErrCorruptFrame)
	}
	if _, err := io.ReadFull(c.br, w.scatter[:dn]); err != nil {
		return wrapTimeout(wrapTruncated(err))
	}
	w.replyOp = opOK
	w.scattered = true
	w.scatterN = dn
	return nil
}

// kill marks the conn dead, closes the socket, and fails every pending
// call so no waiter ever hangs on a broken connection.
func (c *conn) kill(err error) {
	c.pendMu.Lock()
	if c.failed != nil {
		c.pendMu.Unlock()
		return
	}
	c.failed = err
	close(c.dead)
	waiters := make([]*wireCall, 0, len(c.pending))
	for tag, w := range c.pending {
		delete(c.pending, tag)
		//lint:allow detmaprange waiters each unblock independently; completion order is unobservable
		waiters = append(waiters, w)
	}
	c.pendMu.Unlock()
	// Socket close and waiter wake-ups happen outside pendMu: Close can
	// block in the kernel, and a woken waiter may immediately issue a
	// follow-up call that needs the lock.
	c.nc.Close()
	for _, w := range waiters {
		w.err = err
		close(w.done)
	}
	c.wm.setInflight(0)
}

// close shuts the connection down. Pending calls fail with
// errConnClosed.
func (c *conn) close() { c.kill(errConnClosed) }

// call performs one request/reply exchange. Ownership of payload (a
// pooled buffer) transfers to the conn on entry — the conn releases it
// exactly once, on every path. The pooled reply belongs to the caller,
// who putBufs it once decoded.
func (c *conn) call(op byte, payload []byte) ([]byte, error) {
	w := &wireCall{op: op, payload: payload, done: make(chan struct{})}
	c.start(w)
	<-w.done
	reply, _, err := finishCall(w)
	return reply, err
}

// start registers a chain of calls (linked through next) and hands it to
// the writer through a single send-queue operation, so every frame of a
// server's group lands in one corked flush. Ownership of every payload
// transfers on entry. Every call's done closes exactly once: on its
// reply, or with the conn's terminal error — at once when the conn has
// already failed.
func (c *conn) start(head *wireCall) {
	c.pendMu.Lock()
	if err := c.failed; err != nil {
		c.pendMu.Unlock()
		releaseChain(head)
		for w := head; w != nil; w = w.next {
			w.err = err
			close(w.done)
		}
		return
	}
	var enq time.Time
	if c.wm != nil {
		enq = time.Now()
	}
	for w := head; w != nil; w = w.next {
		c.nextTag++
		w.tag = c.nextTag
		w.enq = enq
		c.pending[w.tag] = w
	}
	n := len(c.pending)
	c.pendMu.Unlock()
	c.wm.setInflight(n)
	select {
	case c.sendq <- head:
		// The writer (or its exit drain) now owns the payloads.
	case <-c.dead:
		// kill covers every registered call; the payloads never reached
		// the writer.
		releaseChain(head)
	}
	c.armReadDeadline()
}

// armReadDeadline pushes the reader's deadline out to cover a freshly
// started exchange. SetReadDeadline interrupts a Read already blocked
// with no deadline, so this re-arms a reader idling on a quiet conn.
func (c *conn) armReadDeadline() {
	if c.ioTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.ioTimeout))
	}
}

// finishCall maps a completed wireCall to (reply, scatteredBytes, error).
func finishCall(w *wireCall) ([]byte, int, error) {
	if w.err != nil {
		return nil, 0, w.err
	}
	if w.scattered {
		return nil, w.scatterN, nil
	}
	reply, err := finishReply(w.replyOp, w.reply)
	return reply, 0, err
}

// finishReply maps a reply frame to (payload, error), releasing the
// pooled payload on the error paths.
func finishReply(op byte, payload []byte) ([]byte, error) {
	switch op {
	case opOK:
		return payload, nil
	case opError:
		err := replyError(payload)
		putBuf(payload)
		return nil, err
	default:
		putBuf(payload)
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
// at metaAddr, with the default resilience policy armed (bounded retries
// with backoff, per-server breaker; no deadlines unless configured).
func NewClient(metaAddr string) *Client {
	return &Client{
		metaAddr:         metaAddr,
		MaxRetries:       defaultMaxRetries,
		RetryBackoff:     defaultRetryBackoff,
		RetryBackoffMax:  defaultRetryBackoffMax,
		BreakerThreshold: defaultBreakerThreshold,
		data:             make(map[string]*conn),
		breakers:         make(map[string]*breaker),
	}
}

// NewIBridgeClient returns a client with fragment flagging enabled at the
// given thresholds (20 KB in the paper).
func NewIBridgeClient(metaAddr string, fragmentThreshold, randomThreshold int64) *Client {
	c := NewClient(metaAddr)
	c.FragmentThreshold = fragmentThreshold
	c.RandomThreshold = randomThreshold
	return c
}

// Close closes all connections. It always returns nil.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta != nil {
		c.meta.close()
		c.meta = nil
	}
	for addr, cn := range c.data {
		cn.close()
		delete(c.data, addr)
	}
	return nil
}

// wireMetricsLocked lazily resolves the client's wire metrics (c.mu
// held).
func (c *Client) wireMetricsLocked() *wireMetrics {
	if c.wm == nil && c.Obs != nil {
		c.wm = newClientWireMetrics(c.Obs)
	}
	return c.wm
}

// resMetrics lazily resolves the client's resilience metrics; nil when
// Obs is unset (all methods on a nil *resilienceMetrics are no-ops).
func (c *Client) resMetrics() *resilienceMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rm == nil && c.Obs != nil {
		c.rm = newResilienceMetrics(c.Obs)
	}
	return c.rm
}

// breakerFor returns addr's breaker, creating it lazily; nil when the
// breaker is disabled (every method on a nil *breaker is a no-op).
func (c *Client) breakerFor(addr string) *breaker {
	if c.BreakerThreshold < 0 {
		return nil
	}
	th := c.BreakerThreshold
	if th == 0 {
		th = defaultBreakerThreshold
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breakers == nil {
		c.breakers = make(map[string]*breaker)
	}
	b := c.breakers[addr]
	if b == nil {
		b = &breaker{threshold: th}
		c.breakers[addr] = b
	}
	return b
}

// ServerDegraded reports whether the client's breaker currently marks
// the data server at addr degraded.
func (c *Client) ServerDegraded(addr string) bool {
	c.mu.Lock()
	b := c.breakers[addr]
	c.mu.Unlock()
	return b.isOpen()
}

// latKey identifies one per-server, per-op-class latency sketch.
type latKey struct {
	addr, class string
}

// slowLogMinSamples is the sketch warm-up before slow-request wide
// events fire: below it the p99 estimate is noise and every early
// request would log itself.
const slowLogMinSamples = 20

// opClass names the latency class of a data opcode.
func opClass(op byte) string {
	switch op {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opFlush:
		return "flush"
	default:
		return "other"
	}
}

// sketchFor returns the windowed latency sketch for (addr, class),
// creating it and its three quantile gauges on first use. Nil without
// a registry (Obs is set before the first request, so reading it
// unlocked is race-free): the hot path pays a pointer test and nothing
// else.
func (c *Client) sketchFor(addr, class string) *sketch.Sketch {
	if c.Obs == nil {
		return nil
	}
	k := latKey{addr, class}
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if c.sketches == nil {
		c.sketches = make(map[latKey]*sketch.Sketch)
	}
	sk := c.sketches[k]
	if sk == nil {
		sk = sketch.New(0, 0)
		c.sketches[k] = sk
		prefix := "pfsnet.client.server." + addr + "." + class + "."
		for _, g := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			q := g.q
			c.Obs.RegisterFunc(prefix+g.name, func() float64 { return sk.Quantile(q) })
		}
	}
	return sk
}

// parentSketch returns the whole-request latency sketch for an op
// class — the reference distribution slow-request events compare
// against. Kept separate from the per-server sketches so fan-out
// requests do not skew per-server tails.
func (c *Client) parentSketch(class string) *sketch.Sketch {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if c.parentSk == nil {
		c.parentSk = make(map[string]*sketch.Sketch)
	}
	sk := c.parentSk[class]
	if sk == nil {
		sk = sketch.New(0, 0)
		c.parentSk[class] = sk
	}
	return sk
}

// ServerLatency is one row of LatencySnapshot: the recent (windowed)
// latency quantiles the client has observed against one data server
// for one op class, in milliseconds.
type ServerLatency struct {
	Server string
	Class  string
	Count  int64
	P50    float64
	P95    float64
	P99    float64
}

// LatencySnapshot returns the client's current per-server latency
// estimates, sorted by (Server, Class): the same sketches issue
// ordering ranks servers by. Tests use it to see a skewed
// server separate from its peers.
func (c *Client) LatencySnapshot() []ServerLatency {
	c.latMu.Lock()
	keys := make([]latKey, 0, len(c.sketches))
	for k := range c.sketches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		return keys[i].class < keys[j].class
	})
	sks := make([]*sketch.Sketch, len(keys))
	for i, k := range keys {
		sks[i] = c.sketches[k]
	}
	c.latMu.Unlock()
	rows := make([]ServerLatency, len(keys))
	for i, k := range keys {
		qs := sks[i].Quantiles(0.50, 0.95, 0.99)
		rows[i] = ServerLatency{
			Server: k.addr, Class: k.class,
			Count: sks[i].Count(),
			P50:   qs[0], P95: qs[1], P99: qs[2],
		}
	}
	return rows
}

// FragTiming is one fragment (sub-request) line of a slow-request wide
// event: which server it went to, where, how long it took.
type FragTiming struct {
	Server string  `json:"server"`
	Off    int64   `json:"off"`
	Len    int64   `json:"len"`
	MS     float64 `json:"ms"`
	Err    string  `json:"err,omitempty"`
}

// parentReq is the per-ReadAt/WriteAt context threaded through the
// fan-out: the trace ids propagated to servers, and the per-fragment
// timings a slow-request event reports. Nil when neither tracing nor
// the slow log is armed — every touch point is pointer-guarded.
type parentReq struct {
	op    string
	class string
	trace uint64
	span  uint64
	start time.Time

	mu    sync.Mutex
	frags []FragTiming
}

func (pr *parentReq) addFrag(server string, sub stripe.Sub, d time.Duration, err error) {
	if pr == nil {
		return
	}
	ft := FragTiming{Server: server, Off: sub.ServerOff, Len: sub.Length, MS: float64(d) / 1e6}
	if err != nil {
		ft.Err = err.Error()
	}
	pr.mu.Lock()
	pr.frags = append(pr.frags, ft)
	pr.mu.Unlock()
}

// startParent opens the per-request context, or returns nil when no
// observer wants it.
func (c *Client) startParent(op, class string) *parentReq {
	if c.Tracer == nil && c.SlowLog == nil {
		return nil
	}
	pr := &parentReq{op: op, class: class, start: time.Now()}
	if c.Tracer != nil {
		pr.trace = c.Tracer.NewID()
		pr.span = c.Tracer.NewID()
	}
	return pr
}

// slowEvent is the JSON shape of one slow-request wide event.
type slowEvent struct {
	TS    string       `json:"ts"`
	Op    string       `json:"op"`
	Trace string       `json:"trace,omitempty"`
	Off   int64        `json:"off"`
	Len   int64        `json:"len"`
	MS    float64      `json:"ms"`
	P99MS float64      `json:"p99_ms"`
	Err   string       `json:"err,omitempty"`
	Frags []FragTiming `json:"frags,omitempty"`
}

// finishParent closes the per-request context: it emits the client
// parent span and, when the request ran past the op class's current
// p99 (sampled before this request joins the distribution, so one
// slow request cannot raise its own bar), one wide-event JSON line
// with the per-fragment timings.
func (c *Client) finishParent(pr *parentReq, off, length int64, err error) {
	if pr == nil {
		return
	}
	dur := time.Since(pr.start)
	c.Tracer.Span(pr.trace, pr.span, 0, pr.op, pr.class, pr.start, dur)
	if c.SlowLog == nil {
		return
	}
	sk := c.parentSketch(pr.class)
	ms := float64(dur) / 1e6
	n := sk.Count()
	p99 := sk.Quantile(0.99)
	sk.Observe(ms)
	if n < slowLogMinSamples || ms <= p99 {
		return
	}
	pr.mu.Lock()
	frags := append([]FragTiming(nil), pr.frags...)
	pr.mu.Unlock()
	sort.Slice(frags, func(i, j int) bool {
		if frags[i].Server != frags[j].Server {
			return frags[i].Server < frags[j].Server
		}
		return frags[i].Off < frags[j].Off
	})
	ev := slowEvent{
		TS: time.Now().UTC().Format(time.RFC3339Nano),
		Op: pr.op, Off: off, Len: length,
		MS: ms, P99MS: p99, Frags: frags,
	}
	if pr.trace != 0 {
		ev.Trace = fmt.Sprintf("%016x", pr.trace)
	}
	if err != nil {
		ev.Err = err.Error()
	}
	line, jerr := json.Marshal(ev)
	if jerr != nil {
		return
	}
	line = append(line, '\n')
	c.slowMu.Lock()
	c.SlowLog.Write(line) //lint:allow lockio slowMu exists only to keep wide-event lines atomic; cold path, past-p99 requests only
	c.slowMu.Unlock()
}

func (c *Client) metaConn() (*conn, error) {
	c.mu.Lock()
	if c.meta != nil {
		cn := c.meta
		c.mu.Unlock()
		return cn, nil
	}
	wm := c.wireMetricsLocked()
	c.mu.Unlock()
	// Dial outside the lock: the hello is a network round trip.
	cn, err := dialConn(c.metaAddr, c.dialOpts(wm))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta != nil { // lost a dial race; keep the winner
		cn.close()
		return c.meta, nil
	}
	c.meta = cn
	return cn, nil
}

// dataConn returns the connection to data server addr, dialling it
// lazily outside the lock (the hello is a network round trip).
func (c *Client) dataConn(addr string) (*conn, error) {
	c.mu.Lock()
	if cn := c.data[addr]; cn != nil {
		c.mu.Unlock()
		return cn, nil
	}
	wm := c.wireMetricsLocked()
	c.mu.Unlock()
	cn, err := dialConn(addr, c.dialOpts(wm))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if have := c.data[addr]; have != nil { // lost a dial race; keep the winner
		cn.close()
		return have, nil
	}
	c.data[addr] = cn
	return cn, nil
}

// dropDataConn discards a broken connection so the next attempt redials.
func (c *Client) dropDataConn(addr string, cn *conn) {
	c.mu.Lock()
	if c.data[addr] == cn {
		delete(c.data, addr)
	}
	c.mu.Unlock()
	cn.close()
}

// dataReq is one request of a server's group. A write's data is src,
// which its frame borrows; a read's reply data lands in dst; any other
// request's pooled reply is left in reply, which the caller owns and
// releases whatever send returns. done marks a request answered (or
// refused by the server), so no later attempt resends it.
type dataReq struct {
	sub   stripe.Sub
	src   []byte
	dst   []byte
	reply []byte
	done  bool
}

// send issues one data server's group of requests — a lone request is a
// group of one — under the client's resilience policy. Each attempt
// registers every still-unanswered request as one chain on the server's
// connection (one send-queue operation, one corked flush) and waits for
// all of them. A transport failure drops the connection, backs off
// (bounded exponential, deterministic jitter) and resends only the
// requests it failed, up to MaxRetries resends within RequestTimeout;
// read and write sub-requests are idempotent, so resending is safe.
// Server-reported (remote) errors are never resent: the server
// answered, which proves it alive. The breaker sees one outcome per
// attempt, so while it is open one caller's whole group is the probe
// and the other callers fail fast with ErrServerDown.
//
// encode builds a request's payload; it runs once per attempt because
// ownership of the payload transfers to the connection (DESIGN §11), so
// a resend needs a fresh one. A write's src rides behind it borrowed,
// and send keeps it borrowed only while it may be on the wire: a reply
// proves the server read the whole frame, and after a transport failure
// send waits for the connection's writer to exit before it resends or
// returns.
func (c *Client) send(addr string, op byte, reqs []dataReq, encode func(stripe.Sub) []byte, pr *parentReq) error {
	rm := c.resMetrics()
	b := c.breakerFor(addr)
	sk := c.sketchFor(addr, opClass(op))
	retries := max(c.MaxRetries, 0)
	var start, deadline time.Time
	if pr != nil || c.RequestTimeout > 0 {
		start = time.Now()
	}
	if c.RequestTimeout > 0 {
		deadline = start.Add(c.RequestTimeout)
	}
	var tcID, tcSpan uint64
	if pr != nil {
		tcID, tcSpan = pr.trace, pr.span
	}
	var first, lastErr error // first remote or decode error; last transport failure
	for attempt := 0; ; attempt++ {
		probe, err := b.acquire(addr)
		if err != nil {
			rm.onFastFail()
			lastErr = err
			break
		}
		var t0 time.Time
		if sk != nil {
			t0 = time.Now()
		}
		cn, err := c.dataConn(addr)
		if err == nil {
			var head *wireCall // the unanswered requests, in order
			for i := len(reqs) - 1; i >= 0; i-- {
				if !reqs[i].done {
					head = &wireCall{op: op, payload: encode(reqs[i].sub), data: reqs[i].src, scatter: reqs[i].dst,
						tcID: tcID, tcSpan: tcSpan, next: head, done: make(chan struct{})}
				}
			}
			cn.start(head)
			for i, w := 0, head; w != nil; i++ {
				if reqs[i].done {
					continue
				}
				<-w.done
				reply, n, cerr := finishCall(w)
				w = w.next
				if _, isRemote := cerr.(remoteError); cerr != nil && !isRemote {
					err = cerr // transport failure: resend on the next attempt
					continue
				}
				reqs[i].done = true
				if cerr == nil && sk != nil {
					sk.Observe(float64(time.Since(t0)) / 1e6)
				}
				if pr != nil {
					pr.addFrag(addr, reqs[i].sub, time.Since(start), cerr)
				}
				if cerr == nil && reqs[i].dst != nil {
					cerr = finishRead(reply, n, reqs[i].dst, reqs[i].sub.Length)
				} else if cerr == nil {
					reqs[i].reply = reply
				}
				if cerr != nil && first == nil {
					first = cerr
				}
			}
			if err != nil {
				c.dropDataConn(addr, cn)
				<-cn.wdone // the fence: no writev may still read a borrowed src
			}
		}
		c.recordOutcome(b, rm, probe, err == nil)
		if err == nil {
			return first
		}
		if errors.Is(err, ErrDeadline) {
			rm.onDeadline()
		}
		lastErr = err
		if attempt >= retries {
			break
		}
		d := c.backoffDelay(attempt)
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			rm.onDeadline()
			lastErr = fmt.Errorf("pfsnet: %s: request budget exhausted after %d attempts (%w): %v",
				addr, attempt+1, ErrDeadline, lastErr)
			break
		}
		rm.onRetry()
		if d > 0 {
			time.Sleep(d)
		}
	}
	for i := range reqs {
		if pr != nil && !reqs[i].done {
			pr.addFrag(addr, reqs[i].sub, time.Since(start), lastErr)
		}
	}
	return lastErr
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
// (0-based): RetryBackoff·2^attempt capped at RetryBackoffMax, plus
// deterministic jitter of up to half the step drawn from the client
// Seed and a global attempt sequence — bounded exponential backoff
// whose timing is a pure function of the client's failure history.
func (c *Client) backoffDelay(attempt int) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		return 0
	}
	maxd := c.RetryBackoffMax
	if maxd <= 0 {
		maxd = defaultRetryBackoffMax
	}
	d := base << uint(min(attempt, 20))
	if d <= 0 || d > maxd {
		d = maxd
	}
	n := c.attempts.Add(1)
	jitter := time.Duration(faults.Mix64(c.Seed^n) % uint64(d/2+1))
	return d + jitter
}

func (c *Client) fileFromReply(name string, payload []byte) (*File, error) {
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
	// Optional trailing T_i load-hint vector (count u32 + float64 bits
	// per server, stripe order). Decoders ignore trailing payload bytes
	// by protocol contract, so servers that predate hints send nothing
	// and this block is skipped; a malformed vector is dropped rather
	// than failing the open.
	if len(d.b) >= 4 {
		hd := dec{b: d.b}
		hn := hd.u32()
		if int(hn) == len(f.servers) {
			hints := make(map[string]float64, hn)
			for i := uint32(0); i < hn; i++ {
				hints[f.servers[i]] = math.Float64frombits(hd.u64())
			}
			if hd.err == nil {
				c.SetLoadHints(hints)
			}
		}
	}
	f.layout = stripe.Layout{Unit: unit, Servers: len(f.servers)}
	return f, f.layout.Validate()
}

// metaCall performs one metadata request; ownership of payload transfers
// in (released here on the paths that never reach a connection). On a
// transport failure the cached metadata connection is discarded so the
// next call redials instead of failing forever against a dead socket.
func (c *Client) metaCall(op byte, payload []byte) ([]byte, error) {
	mc, err := c.metaConn()
	if err != nil {
		putBuf(payload)
		return nil, err
	}
	reply, err := mc.call(op, payload)
	if err != nil {
		if _, isRemote := err.(remoteError); !isRemote {
			c.mu.Lock()
			if c.meta == mc {
				c.meta = nil
			}
			c.mu.Unlock()
			mc.close()
		}
		return nil, err
	}
	return reply, nil
}

// Create creates a file of the given size.
func (c *Client) Create(name string, size int64) (*File, error) {
	e := newEnc()
	e.str(name)
	e.i64(size)
	reply, err := c.metaCall(opCreate, e.b)
	if err != nil {
		return nil, err
	}
	f, err := c.fileFromReply(name, reply)
	putBuf(reply)
	return f, err
}

// Open opens an existing file.
func (c *Client) Open(name string) (*File, error) {
	e := newEnc()
	e.str(name)
	reply, err := c.metaCall(opOpen, e.b)
	if err != nil {
		return nil, err
	}
	f, err := c.fileFromReply(name, reply)
	putBuf(reply)
	return f, err
}

// subs decomposes a request, applying fragment flagging when configured.
func (c *Client) subs(f *File, off, length int64) []stripe.Sub {
	if c.FragmentThreshold > 0 {
		return f.layout.DecomposeFlagged(off, length, c.FragmentThreshold)
	}
	return f.layout.Decompose(off, length)
}

// groupByServer splits subs into per-server groups, preserving the
// sub-request order within each group.
func groupByServer(subs []stripe.Sub, nsrv int) [][]stripe.Sub {
	per := make([][]stripe.Sub, nsrv)
	for _, sub := range subs {
		per[sub.Server] = append(per[sub.Server], sub)
	}
	groups := per[:0]
	for _, g := range per {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// writeHdrSize is the encoded size of a write sub-request ahead of its
// data: file u64 + off i64 + flags u8 + blob length prefix u32.
const writeHdrSize = 8 + 8 + 1 + 4

// encodeWrite builds the header of one write sub-request in a pooled
// buffer. The sub-request's data is not copied: its frame carries the
// caller's bytes right behind this header (wireCall.data).
func encodeWrite(f *File, sub stripe.Sub, random bool) []byte {
	e := newEncN(writeHdrSize)
	e.u64(f.ID)
	e.i64(sub.ServerOff)
	var flags byte
	if sub.Fragment || random {
		flags |= 1
	}
	e.u8(flags)
	e.u32(uint32(sub.Length))
	return e.b
}

// encodeRead builds one read sub-request payload.
func encodeRead(f *File, sub stripe.Sub) []byte {
	e := newEncN(24)
	e.u64(f.ID)
	e.i64(sub.ServerOff)
	e.i64(sub.Length)
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
	c.finishParent(pr, off, int64(len(p)), err)
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
	c.finishParent(pr, off, int64(len(p)), err)
	return err
}

// do fans one ReadAt/WriteAt out: the request splits into per-server
// groups, each group goes to its server as one send, the servers
// proceed in parallel, and the parent waits for every group.
func (c *Client) do(f *File, op byte, off int64, p []byte, pr *parentReq) error {
	random := op == opWrite && c.RandomThreshold > 0 && int64(len(p)) < c.RandomThreshold
	subs := c.subs(f, off, int64(len(p)))
	if len(subs) == 1 {
		return c.sendGroup(f, op, off, p, subs, random, pr)
	}
	groups := groupByServer(subs, len(f.servers))
	if len(groups) == 1 {
		return c.sendGroup(f, op, off, p, groups[0], random, pr)
	}
	c.orderGroups(f, groups, opClass(op))
	errs := make(chan error, len(groups))
	for _, g := range groups {
		go func() {
			errs <- c.sendGroup(f, op, off, p, g, random, pr)
		}()
	}
	var first error
	for range groups {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sendGroup sends one server's sub-requests of the ReadAt/WriteAt of p
// at off: write frames borrow their slice of p, read replies scatter
// into p, write acks are released.
func (c *Client) sendGroup(f *File, op byte, off int64, p []byte, subs []stripe.Sub, random bool, pr *parentReq) error {
	var buf [4]dataReq
	reqs := slices.Grow(buf[:0], len(subs))
	for _, sub := range subs {
		r := dataReq{sub: sub}
		if op == opRead {
			r.dst = p[sub.FileOff-off : sub.FileOff-off+sub.Length]
		} else {
			r.src = p[sub.FileOff-off : sub.FileOff-off+sub.Length]
		}
		reqs = append(reqs, r)
	}
	err := c.send(f.servers[subs[0].Server], op, reqs, func(sub stripe.Sub) []byte {
		if op == opRead {
			return encodeRead(f, sub)
		}
		return encodeWrite(f, sub, random)
	}, pr)
	for _, r := range reqs {
		if r.reply != nil { // reads leave none; putBuf(nil) would still allocate
			putBuf(r.reply)
		}
	}
	return err
}

// finishRead validates a read result: either n bytes were already
// scattered into dst (reply nil), or reply is the pooled payload to
// decode and copy out — released here on every path.
func finishRead(reply []byte, n int, dst []byte, want int64) error {
	if reply == nil {
		if int64(n) != want {
			return fmt.Errorf("pfsnet: short read: %d of %d bytes", n, want)
		}
		return nil
	}
	d := dec{b: reply}
	data := d.bytes()
	if d.err != nil {
		putBuf(reply)
		return d.err
	}
	if int64(len(data)) != want {
		putBuf(reply)
		return fmt.Errorf("pfsnet: short read: %d of %d bytes", len(data), want)
	}
	copy(dst, data)
	putBuf(reply)
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
		// Without a file we have no server list; flush via the cached
		// data connections.
		c.mu.Lock()
		for addr := range c.data {
			servers = append(servers, addr)
		}
		c.mu.Unlock()
		// Flush in a stable order so multi-server error/byte totals do
		// not depend on connection-map iteration order.
		sort.Strings(servers)
	}
	var total int64
	for _, addr := range servers {
		var req [1]dataReq
		err := c.send(addr, opFlush, req[:], func(stripe.Sub) []byte {
			e := newEnc()
			e.u64(id)
			return e.b
		}, nil)
		if err != nil {
			return total, err
		}
		d := dec{b: req[0].reply}
		total += d.i64()
		putBuf(req[0].reply)
		if d.err != nil {
			return total, d.err
		}
	}
	return total, nil
}

func (c *Client) checkRange(f *File, off, length int64) error {
	if off < 0 || length < 0 || off+length > f.Size {
		return fmt.Errorf("pfsnet: request [%d,+%d) outside file %q of size %d", off, length, f.Name, f.Size)
	}
	return nil
}
