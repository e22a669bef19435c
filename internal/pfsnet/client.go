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
// issues each server's sub-requests as one group, all servers
// concurrently.
//
// Each group runs to completion on one goroutine, the caller's own for
// a request that reaches one server. It checks an idle connection to the
// server out of a per-address pool (or dials one), writes the group's
// frames with one writev — frame headers and small payloads packed into
// pooled arena chunks, large payloads referenced in place — reads the
// replies in order, scattering read data straight into the caller's
// buffer, and hands the connection back. Concurrent callers use separate
// connections, so a server's pool holds as many as the peak number of
// groups in flight to it. Payload buffers follow the wire ownership
// contract (DESIGN §11): the caller encodes into a pooled buffer and
// hands it to the connection, which releases it exactly once. A write's
// data is not copied at all: its frame borrows the caller's buffer,
// which is free again once the caller's own writev has returned.
type Client struct {
	metaAddr string
	// FragmentThreshold enables iBridge client-side flagging when > 0.
	FragmentThreshold int64
	// RandomThreshold flags whole small requests as regular random.
	RandomThreshold int64
	// Obs, when set before the first request, receives wire-level
	// metrics under "pfsnet.client.*" (frames, bytes, in-flight depth,
	// writev batching) and the resilience metrics (retries,
	// deadline_exceeded, breaker state). It also arms the per-server
	// latency sketches and their
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
	// IOTimeout bounds each flush of a group's frames and each reply
	// read: a server that leaves a reply unanswered that long has its
	// connection declared dead with ErrDeadline. 0 disables I/O
	// deadlines.
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
	inflight  atomic.Int64  // requests inside a round trip, for the gauge

	// mu guards the pool: one peer per server address, metadata server
	// included, and the closed flag.
	mu     sync.Mutex
	wm     *wireMetrics
	rm     *resilienceMetrics
	peers  map[string]*peer
	closed bool

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

// peer is the client's state for one server address: the breaker, the
// metric sinks (both set when the peer is created) and the idle
// connections, which Client.mu guards. A peer is never removed, so the
// pool knows every address it has dialled.
type peer struct {
	br   *breaker
	wm   *wireMetrics
	rm   *resilienceMetrics
	idle []*conn // the most recently returned goes out first
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

// dialConn connects to addr and runs the hello. The dial is bounded by
// o.dialTimeout and the hello round trip by o.ioTimeout; a fault plan,
// when armed, injects its dial refusals and wraps the new connection.
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
	return c, nil
}

// newConn wraps a connected socket.
func newConn(nc net.Conn, o dialOpts) *conn {
	return &conn{
		nc:        nc,
		wm:        o.wm,
		br:        bufio.NewReaderSize(nc, connBufSize),
		vw:        newVecWriter(nc, o.wm),
		ioTimeout: o.ioTimeout,
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
	fr, err := readFrame(c.br)
	if err != nil {
		return err
	}
	reply, err := finishReply(fr.op, fr.payload)
	putBuf(reply)
	return err
}

// queue adds one request frame to the next flush, tagged with the next
// tag; a nonzero tcID makes it a traced frame. Ownership of payload
// transfers on entry, error included; data stays borrowed until the
// flush (or close) returns.
func (c *conn) queue(op byte, tcID, tcSpan uint64, payload, data []byte) error {
	c.sent++
	n := len(payload) + len(data)
	var err error
	if tcID != 0 {
		err = c.vw.writeFrameCtx(c.sent, op, tcID, tcSpan, payload, data)
	} else {
		err = c.vw.writeFrame(c.sent, op, payload, data)
	}
	if err == nil {
		c.wm.onTx(n)
	}
	return err
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
// corrupt frame. A successful read reply whose data fits scatter is read
// straight into it and recv reports its length; any other reply comes
// back pooled, for the caller to release. A server's error reply is its
// remoteError; any other error leaves the connection unusable.
func (c *conn) recv(scatter []byte) ([]byte, int, error) {
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
	if scatter != nil && op == opOK && plen >= 4 && plen-4 <= len(scatter) {
		dn, err := c.scatterInto(scatter, plen)
		if err != nil {
			return nil, 0, err
		}
		c.wm.onRx(plen)
		c.wm.onScatter(dn)
		return nil, dn, nil
	}
	payload := getBuf(plen)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		putBuf(payload)
		return nil, 0, wrapTimeout(wrapTruncated(err))
	}
	c.wm.onRx(plen)
	reply, err := finishReply(op, payload)
	return reply, 0, err
}

// scatterInto reads a read-reply payload (u32 length + data) of plen
// bytes directly into dst, bypassing the pooled intermediate, and
// returns the data length. The caller guarantees plen-4 fits dst.
func (c *conn) scatterInto(dst []byte, plen int) (int, error) {
	lp := c.hdr[:4]
	if _, err := io.ReadFull(c.br, lp); err != nil {
		return 0, wrapTimeout(wrapTruncated(err))
	}
	dn := int(binary.BigEndian.Uint32(lp))
	if dn != plen-4 {
		return 0, fmt.Errorf("pfsnet: read reply blob of %d bytes does not fill its frame (%w)", dn, ErrCorruptFrame)
	}
	if _, err := io.ReadFull(c.br, dst[:dn]); err != nil {
		return 0, wrapTimeout(wrapTruncated(err))
	}
	return dn, nil
}

// call performs one request/reply exchange. Ownership of payload (a
// pooled buffer) transfers to the conn on entry. The pooled reply
// belongs to the caller, who putBufs it once decoded.
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

// close shuts the connection down and releases any frames still queued.
func (c *conn) close() {
	c.nc.Close()
	c.vw.abandon()
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
		peers:            make(map[string]*peer),
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
// shares.
func (c *Client) checkout(addr string) (*peer, *conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.peers[addr]
	if p == nil {
		if c.wm == nil && c.Obs != nil {
			c.wm = newClientWireMetrics(c.Obs)
			c.rm = newResilienceMetrics(c.Obs)
		}
		p = &peer{wm: c.wm, rm: c.rm}
		if th := c.BreakerThreshold; th >= 0 {
			if th == 0 {
				th = defaultBreakerThreshold
			}
			p.br = &breaker{threshold: th}
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

// ServerDegraded reports whether the client's breaker currently marks
// the data server at addr degraded.
func (c *Client) ServerDegraded(addr string) bool {
	c.mu.Lock()
	p := c.peers[addr]
	c.mu.Unlock()
	return p != nil && p.br.isOpen()
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
// checks a connection to the server out of the pool, writes every
// still-unanswered request as one chain with one writev, and reads
// their replies in order. A transport failure discards the connection
// and the server's idle ones, backs off (bounded exponential,
// deterministic jitter) and resends only the requests it left
// unanswered, up to MaxRetries resends within RequestTimeout; read and
// write sub-requests are idempotent, so resending is safe.
// Server-reported (remote) errors are never resent: the server
// answered, which proves it alive. The breaker sees one outcome per
// attempt, so while it is open one caller's whole group is the probe
// and the other callers fail fast with ErrServerDown.
//
// encode builds a request's payload; it runs once per attempt because
// ownership of the payload transfers to the connection (DESIGN §11), so
// a resend needs a fresh one. A write's src rides behind it borrowed,
// and is free again once the attempt's flush has returned.
func (c *Client) send(addr string, op byte, reqs []dataReq, encode func(stripe.Sub) []byte, pr *parentReq) error {
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
		p, cn := c.checkout(addr)
		probe, err := p.br.acquire(addr)
		if err != nil {
			c.checkin(p, cn)
			p.rm.onFastFail()
			lastErr = err
			break
		}
		var t0 time.Time
		if sk != nil {
			t0 = time.Now()
		}
		if cn == nil {
			cn, err = dialConn(addr, c.dialOpts(p.wm))
		}
		if err == nil {
			queued := 0
			for i := range reqs {
				if !reqs[i].done && err == nil {
					err = cn.queue(op, tcID, tcSpan, encode(reqs[i].sub), reqs[i].src)
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
				reply, n, cerr := cn.recv(reqs[i].dst)
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
		if attempt >= retries {
			break
		}
		d := c.backoffDelay(attempt)
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			p.rm.onDeadline()
			lastErr = fmt.Errorf("pfsnet: %s: request budget exhausted after %d attempts (%w): %v",
				addr, attempt+1, ErrDeadline, lastErr)
			break
		}
		p.rm.onRetry()
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

// metaCall performs one metadata request on a pooled connection to the
// metadata server; ownership of payload transfers in (released here on
// the paths that never reach a connection). A transport failure
// discards the connection, so the next call redials instead of failing
// forever against a dead socket.
func (c *Client) metaCall(op byte, payload []byte) ([]byte, error) {
	p, cn := c.checkout(c.metaAddr)
	if cn == nil {
		var err error
		if cn, err = dialConn(c.metaAddr, c.dialOpts(p.wm)); err != nil {
			putBuf(payload)
			return nil, err
		}
	}
	reply, err := cn.call(op, payload)
	if _, isRemote := err.(remoteError); err != nil && !isRemote {
		c.discard(p, cn)
		return nil, err
	}
	c.checkin(p, cn)
	return reply, err
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
// groups, each group goes to its server as one send, and the servers
// proceed in parallel. The first group in issue order, the one predicted
// slowest (orderGroups), runs on the calling goroutine, so it reaches
// its writev without waiting for a goroutine to be scheduled.
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
	errs := make(chan error, len(groups)-1)
	for _, g := range groups[1:] {
		go func() {
			errs <- c.sendGroup(f, op, off, p, g, random, pr)
		}()
	}
	first := c.sendGroup(f, op, off, p, groups[0], random, pr)
	for range len(groups) - 1 {
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
