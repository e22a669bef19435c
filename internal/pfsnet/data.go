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

// DurableStore is the optional crash-consistency extension of
// ObjectStore that logstore.LogStore implements. A data server whose
// store satisfies it folds the store's record appends into the fault
// plan's ssdfail write count (so `ssdfail=srvN@K` specs written against
// the legacy fragment log apply unchanged to log-backed servers) and
// fails the store's device together with the bridge log when the
// scheduled failure trips.
type DurableStore interface {
	ObjectStore
	// RecordAppends returns the number of acknowledged log-record
	// appends since the store opened.
	RecordAppends() int64
	// FailDevice simulates the store's log device failing: the store
	// degrades to serving from memory, losing durability but no bytes.
	FailDevice() error
}

// DataServer stores the per-server striped objects and serves read/write
// sub-requests over TCP. When Bridge is enabled, flagged sub-requests
// (fragments and regular random requests) are appended to the fragment
// log (bridge.go) — the functional analogue of iBridge's SSD cache — and
// drained back to the object store on Flush.
//
// Each v2 connection runs to completion on the one goroutine that reads
// it: read a frame, execute it, queue the tagged reply, and put the
// queued replies on the wire in one writev only when the next read could
// block. Requests on one connection therefore execute in arrival order;
// concurrency comes from connections. Server state is split so requests
// on different connections do not serialize behind one lock: the
// fragment log has its own (logMu, in the bridge), counters are atomic,
// and object-store I/O runs outside both.
type DataServer struct {
	ln        net.Listener
	bridge    *bridge // the fragment log; never nil, inert when the server runs without iBridge
	store     ObjectStore
	durable   DurableStore // non-nil when store is crash-consistent (logstore)
	maxProto  int
	noVec     bool
	ioTimeout time.Duration
	wm        *wireMetrics
	tracer    *obs.XTracer
	features  uint32       // feature bits advertised during hello
	connSeq   atomic.Int64 // per-connection trace-scope numbering

	// SSD-device failure: when the fault plan schedules a device failure
	// for this server (or FailSSD is called), the fragment log is
	// drained once and the server degrades gracefully to the direct
	// store path — iBridge's cache is an accelerator, so losing it must
	// cost performance, never bytes.
	plan         *faults.Plan
	ssdFailAfter int64 // fragment-log writes until the device fails; 0 = never

	ctr       dataCounters
	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// ServerConfig configures a data server beyond the common defaults.
type ServerConfig struct {
	// Bridge enables the iBridge fragment log.
	Bridge bool
	// Store is the backing object store (default: in-memory).
	Store ObjectStore
	// MaxProto caps the wire protocol the server will negotiate
	// (0 means the latest; 1 makes the server behave like a legacy v1
	// peer, rejecting the hello opcode).
	MaxProto int
	// DisableVectored forces v2 replies onto the legacy corked bufio
	// path instead of vectored (writev) submission — the interop escape
	// hatch, and the A/B knob for the wire benchmarks.
	DisableVectored bool
	// Obs, when set, receives wire-level metrics under
	// "pfsnet.server.*".
	Obs *obs.Registry
	// Tracer, when set, records server-side spans (queue-wait, store,
	// respond) under the trace context of requests that carry one on
	// the wire. Tracing only activates on connections whose hello
	// negotiated featTrace; a nil tracer costs one pointer test.
	Tracer *obs.XTracer
	// DisableTracing stops the server from advertising featTrace during
	// hello negotiation — the interop knob modelling an older v2 peer
	// that predates the trace extension.
	DisableTracing bool
	// DisableCancel stops the server from advertising featCancel — the
	// interop knob modelling an older v2 peer that predates the
	// hedged-read cancellation extension. Hedging clients degrade to
	// plain re-issue without cancellation against such a peer.
	DisableCancel bool
	// IOTimeout, when positive, bounds each frame read and reply flush
	// on every connection so a stalled or half-open peer cannot pin its
	// connection goroutine forever. 0 (the default) disables deadlines.
	IOTimeout time.Duration
	// FaultPlan, when set, wraps the listener with the plan's connection
	// faults and arms the plan's SSD-device failure for FaultScope.
	FaultPlan *faults.Plan
	// FaultScope is this server's name in the fault plan (e.g. "srv0").
	FaultScope string
}

// DataStats counts server activity.
type DataStats struct {
	Reads, Writes      int64
	FragmentWrites     int64
	FragmentReads      int64
	LogBytes           int64
	Flushes            int64
	FlushedBytes       int64
	ReadBytes, WrBytes int64
	// CancelsReceived counts well-formed opCancel frames read on
	// connections that negotiated featCancel. They are dropped: a
	// connection executes in arrival order, so the request a cancel
	// names has always run by then. DirectReads counts opReadDirect
	// requests (hedge re-issues).
	CancelsReceived int64
	DirectReads     int64
	// The fragment log right now (gauges, unlike the counters above):
	// bytes the index maps, bytes appended into chunks the log still
	// holds, and index entries. LogBytes above is every byte ever logged.
	BridgeLiveBytes int64
	BridgeHeldBytes int64
	BridgeExtents   int64
}

// dataCounters is the lock-free mirror of DataStats: handlers running in
// parallel update it without sharing the log lock.
type dataCounters struct {
	reads, writes      atomic.Int64
	fragmentWrites     atomic.Int64
	fragmentReads      atomic.Int64
	logBytes           atomic.Int64
	flushes            atomic.Int64
	flushedBytes       atomic.Int64
	readBytes, wrBytes atomic.Int64
	cancelsReceived    atomic.Int64
	directReads        atomic.Int64
}

// NewDataServer starts a data server listening on addr (use
// "127.0.0.1:0" for an ephemeral port) with an in-memory object store.
// bridge enables the fragment log.
func NewDataServer(addr string, bridge bool) (*DataServer, error) {
	return NewDataServerConfig(addr, ServerConfig{Bridge: bridge})
}

// NewDataServerWithStore starts a data server over the given object
// store (e.g. a FileStore for on-disk objects).
func NewDataServerWithStore(addr string, bridge bool, store ObjectStore) (*DataServer, error) {
	return NewDataServerConfig(addr, ServerConfig{Bridge: bridge, Store: store})
}

// NewDataServerConfig starts a data server with explicit configuration.
func NewDataServerConfig(addr string, cfg ServerConfig) (*DataServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = NewMemStore()
	}
	maxProto := cfg.MaxProto
	if maxProto <= 0 || maxProto > maxProtoVersion {
		maxProto = maxProtoVersion
	}
	// Advertise featTrace unless explicitly disabled: stripping the
	// trace context off flagged frames is harmless without a tracer,
	// and always advertising keeps the negotiation matrix small.
	var features uint32
	if !cfg.DisableTracing {
		features = featTrace
	}
	// featCancel is advertised by default for the same reason: consuming
	// a cancel is harmless, and a client that never hedges simply never
	// sends opCancel.
	if !cfg.DisableCancel {
		features |= featCancel
	}
	s := &DataServer{
		ln:        cfg.FaultPlan.WrapListener(ln, cfg.FaultScope),
		bridge:    newBridge(cfg.Bridge),
		store:     store,
		maxProto:  maxProto,
		noVec:     cfg.DisableVectored,
		ioTimeout: cfg.IOTimeout,
		wm:        newWireMetrics(cfg.Obs, "pfsnet.server."),
		tracer:    cfg.Tracer,
		features:  features,
		plan:      cfg.FaultPlan,
		quit:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	if cfg.Obs != nil {
		s.bridge.register(cfg.Obs, "pfsnet.server.bridge.")
	}
	if ds, ok := store.(DurableStore); ok {
		s.durable = ds
	}
	if n, ok := cfg.FaultPlan.SSDFailWrites(cfg.FaultScope); ok {
		s.ssdFailAfter = n
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the server's listen address.
func (s *DataServer) Addr() string { return s.ln.Addr().String() }

// Stats returns a copy of the server statistics.
func (s *DataServer) Stats() DataStats {
	return DataStats{
		Reads:           s.ctr.reads.Load(),
		Writes:          s.ctr.writes.Load(),
		FragmentWrites:  s.ctr.fragmentWrites.Load(),
		FragmentReads:   s.ctr.fragmentReads.Load(),
		LogBytes:        s.ctr.logBytes.Load(),
		Flushes:         s.ctr.flushes.Load(),
		FlushedBytes:    s.ctr.flushedBytes.Load(),
		ReadBytes:       s.ctr.readBytes.Load(),
		WrBytes:         s.ctr.wrBytes.Load(),
		CancelsReceived: s.ctr.cancelsReceived.Load(),
		DirectReads:     s.ctr.directReads.Load(),
		BridgeLiveBytes: s.bridge.liveBytes.Load(),
		BridgeHeldBytes: s.bridge.heldBytes.Load(),
		BridgeExtents:   s.bridge.extents.Load(),
	}
}

// Close stops the server, flushes the log, and waits for connection
// handlers to finish. Open client connections are severed (clients with
// retry logic redial transparently). Close is idempotent: chaos drivers
// crash servers that a deferred cleanup later closes again.
func (s *DataServer) Close() error {
	var first bool
	s.closeOnce.Do(func() { close(s.quit); first = true })
	if !first {
		return nil
	}
	err := s.ln.Close()
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
	if ferr := s.FlushLog(); ferr != nil && err == nil {
		err = ferr
	}
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// FlushLog drains every mapped log extent back to the object store, in
// (file, offset) order — the iBridge writeback at program termination.
func (s *DataServer) FlushLog() error {
	_, err := s.flush(0, true)
	return err
}

// flush writes the fragments of file (of every file when all is set)
// back to the store and returns the bytes written.
func (s *DataServer) flush(file uint64, all bool) (int64, error) {
	n, err := s.bridge.drain(s.store, file, all)
	s.ctr.flushedBytes.Add(n)
	if err == nil {
		s.ctr.flushes.Add(1)
	}
	return n, err
}

func (s *DataServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
				log.Printf("pfsnet data: accept: %v", err)
				return
			}
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *DataServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)
	ver, feats, first, hasFirst, err := serverHandshake(br, bw, s.maxProto, s.features)
	if err != nil {
		return
	}
	if ver >= ProtoV2 {
		scope := fmt.Sprintf("conn%d", s.connSeq.Add(1))
		s.servePipelined(conn, br, bw, feats, scope)
		return
	}
	var firstp *frame
	if hasFirst {
		firstp = &first
	}
	// A v1 peer negotiated no features: dispatch with an empty feature
	// set so feature-gated opcodes are rejected, not silently served.
	serveFrames(conn, br, bw, ProtoV1, firstp, s.wm, s.ioTimeout, func(op byte, payload []byte) (byte, []byte) {
		return s.dispatch(0, op, payload)
	})
}

// servePipelined serves a v2 connection to completion on this goroutine:
// read a frame, dispatch it inline, queue its tagged reply, and put the
// queued replies on the wire only when the next read could block. A
// pipelined burst — a striped parent's chain, or many callers' requests
// sharing the connection — is read with one read(2), executed in order
// and answered with one writev (or one bufio flush under
// DisableVectored).
func (s *DataServer) servePipelined(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, feats uint32, scope string) {
	var vw *vecWriter
	if !s.noVec {
		vw = newVecWriter(conn, s.wm)
		defer vw.abandon()
	}
	var pending []respCtx // traced replies queued since the last flush
	for {
		if !frameBuffered(br) {
			if s.flushReplies(conn, vw, bw) != nil {
				return
			}
			pending = s.flushRespSpans(pending, scope)
			if s.ioTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(s.ioTimeout))
			}
		}
		fr, err := readFrame(br, ProtoV2)
		if err != nil {
			return
		}
		var parsed time.Time
		if fr.tag&tagTraceFlag != 0 {
			fr.tag &^= tagTraceFlag
			if feats&featTrace == 0 || len(fr.payload) < traceCtxSize {
				// A trace flag the hello never negotiated (or a context
				// too short to exist) is a protocol violation, not a
				// request — drop the connection.
				fr.release()
				return
			}
			fr.traced = true
			fr.tcID = binary.BigEndian.Uint64(fr.payload[:8])
			fr.tcSpan = binary.BigEndian.Uint64(fr.payload[8:16])
			parsed = time.Now()
		}
		s.wm.onRx(len(fr.payload))
		if fr.op == opCancel {
			// Fire-and-forget: counted, never dispatched, never answered.
			// The request it names arrived first on this connection and
			// has already run, so there is nothing left to drop.
			if feats&featCancel != 0 {
				d := dec{b: fr.body()}
				if d.u64(); d.err == nil {
					s.ctr.cancelsReceived.Add(1)
				}
			}
			fr.release()
			continue
		}
		traced := s.tracer != nil && fr.traced
		var t0 time.Time
		if traced {
			t0 = time.Now()
			s.tracer.Span(fr.tcID, s.tracer.NewID(), fr.tcSpan, "queue-wait", scope, parsed, t0.Sub(parsed))
		}
		op, reply := s.dispatch(feats, fr.op, fr.body())
		fr.release()
		if traced {
			now := time.Now()
			s.tracer.Span(fr.tcID, s.tracer.NewID(), fr.tcSpan, "store", scope, t0, now.Sub(t0))
			pending = append(pending, respCtx{fr.tcID, fr.tcSpan, now})
		}
		n := len(reply)
		if vw != nil {
			err = vw.writeFrame(ProtoV2, fr.tag, op, reply)
		} else {
			// bufio flushes by itself when its buffer fills, so the write
			// deadline is armed per reply on this path.
			if s.ioTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
			}
			err = writeFrame(bw, ProtoV2, fr.tag, op, reply)
			putBuf(reply)
		}
		if err != nil {
			return
		}
		s.wm.onTx(n)
	}
}

// frameBuffered reports whether br already holds the whole next v2
// frame, so reading it cannot block on the socket. Part of a frame does
// not count: its rest may be slow to arrive, and the replies queued so
// far must not wait for it.
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
func (s *DataServer) flushReplies(conn net.Conn, vw *vecWriter, bw *bufio.Writer) error {
	if vw != nil && vw.frames == 0 || vw == nil && bw.Buffered() == 0 {
		return nil
	}
	if s.ioTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
	}
	if vw != nil {
		return vw.flush()
	}
	return bw.Flush()
}

// respCtx is the trace context of a queued reply, held until the flush
// that actually puts it on the wire.
type respCtx struct {
	tcID, tcSpan uint64
	start        time.Time
}

// flushRespSpans closes one "respond" span per traced reply carried by
// the flush that just completed.
func (s *DataServer) flushRespSpans(pending []respCtx, scope string) []respCtx {
	if len(pending) == 0 {
		return pending
	}
	now := time.Now()
	for _, rc := range pending {
		s.tracer.Span(rc.tcID, s.tracer.NewID(), rc.tcSpan, "respond", scope, rc.start, now.Sub(rc.start))
	}
	return pending[:0]
}

// dispatch executes one request and returns the reply opcode and pooled
// payload. feats is the connection's negotiated feature set: opcodes
// that ride a feature bit (opReadDirect rides featCancel, DESIGN §13)
// are protocol errors on a connection that never negotiated it.
func (s *DataServer) dispatch(feats uint32, op byte, payload []byte) (byte, []byte) {
	var reply []byte
	var err error
	switch op {
	case opWrite:
		reply, err = s.handleWrite(payload)
	case opRead:
		reply, err = s.handleRead(payload)
	case opReadDirect:
		if feats&featCancel == 0 {
			err = fmt.Errorf("pfsnet data: opReadDirect without negotiated featCancel")
		} else {
			reply, err = s.handleReadDirect(payload)
		}
	case opStat:
		reply, err = s.handleStat(payload)
	case opFlush:
		reply, err = s.handleFlush(payload)
	default:
		err = fmt.Errorf("pfsnet data: bad opcode %d", op)
	}
	if err != nil {
		putBuf(reply)
		return opError, errorPayload(err)
	}
	return opOK, reply
}

// handleWrite payload: file u64, off i64, flags u8 (1 = fragment/random), data bytes.
func (s *DataServer) handleWrite(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	off := d.i64()
	flags := d.u8()
	data := d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	if off < 0 {
		return nil, fmt.Errorf("pfsnet data: negative offset %d", off)
	}
	s.ctr.writes.Add(1)
	s.ctr.wrBytes.Add(int64(len(data)))
	if flags&1 != 0 && s.bridge.write(file, off, data) {
		// iBridge path: the write is in the fragment log, mapped over
		// whatever older fragments it overlapped.
		s.ctr.fragmentWrites.Add(1)
		s.ctr.logBytes.Add(int64(len(data)))
		if s.ssdFailAfter > 0 && s.ssdWriteCount() >= s.ssdFailAfter {
			// The scheduled device failure trips on this write: drain the
			// log (this write included) and degrade to the direct path.
			return nil, s.FailSSD()
		}
		return nil, nil
	}
	// Direct path: the write supersedes any fragment mapped in its range
	// (and waits out a write-back of that range already in flight, so
	// older bytes cannot land over it).
	s.bridge.punch(file, off, int64(len(data)))
	if err := s.store.WriteAt(file, off, data); err != nil {
		return nil, err
	}
	// Log-backed stores append a record per write, and those appends
	// count toward the scheduled device failure exactly like legacy
	// fragment-log writes — `ssdfail=srvN@K` fault specs apply
	// unchanged whichever store backs the server.
	if s.durable != nil && s.ssdFailAfter > 0 && !s.SSDFailed() && s.ssdWriteCount() >= s.ssdFailAfter {
		if err := s.FailSSD(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// ssdWriteCount is the write count the fault plan's ssdfail trigger
// compares against: bridge fragment-log writes plus — for a
// crash-consistent store — the store's own record appends.
func (s *DataServer) ssdWriteCount() int64 {
	n := s.ctr.fragmentWrites.Load()
	if s.durable != nil {
		n += s.durable.RecordAppends()
	}
	return n
}

// FailSSD fails this server's SSD (fragment log) device immediately:
// the log takes no more writes, is drained back to the object store
// once, and all further flagged writes take the direct path — graceful
// degradation, the pfsnet analogue of the sim bridge handing fragments
// back to the HDD. Safe to call more than once.
func (s *DataServer) FailSSD() error {
	if !s.bridge.fail() {
		return nil
	}
	s.plan.NoteSSDFail()
	if _, err := s.flush(0, true); err != nil {
		return err
	}
	if s.durable != nil {
		// The same simulated device backs the bridge log and the
		// durable store, so the store's log fails with it: the drained
		// fragments above landed while the device still answered, and
		// the store now degrades to its in-memory overlay (DESIGN §10 —
		// durability lost, bytes kept).
		return s.durable.FailDevice()
	}
	return nil
}

// SSDFailed reports whether the SSD device has failed (by schedule or
// FailSSD) and the server is running degraded.
func (s *DataServer) SSDFailed() bool { return s.bridge.down.Load() }

// handleReadDirect is opRead with the hedge routing hint: a re-issued
// read racing a cancelled (or straggling) primary. Semantically
// identical to a plain read — the fragment-log overlay still applies,
// so hedged reads return exactly the bytes the primary would have.
// The hint only feeds the direct-read counter today; a future elastic
// layer can use it to prefer a replica or the HDD path.
func (s *DataServer) handleReadDirect(payload []byte) ([]byte, error) {
	s.ctr.directReads.Add(1)
	return s.handleRead(payload)
}

// handleRead payload: file u64, off i64, length i64.
// Reply: data bytes.
func (s *DataServer) handleRead(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	off := d.i64()
	length := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	if off < 0 || length < 0 || length > MaxMessage-64 {
		return nil, fmt.Errorf("pfsnet data: bad read [%d,+%d)", off, length)
	}
	s.ctr.reads.Add(1)
	s.ctr.readBytes.Add(length)
	// The reply is built in place — length prefix then data — so the
	// store reads straight into the pooled wire buffer with no
	// intermediate copy.
	reply := getBuf(4 + int(length))
	binary.BigEndian.PutUint32(reply[:4], uint32(length))
	out := reply[4:]
	// The mapped log extents are newer than the object. Their snapshot
	// is taken before the store read and laid over it after (see
	// bridge.overlay for why the order matters).
	var few [4]patch
	patches := s.bridge.overlay(file, off, length, few[:0])
	if err := s.store.ReadAt(file, off, out); err != nil {
		putBuf(reply)
		return nil, err
	}
	if len(patches) > 0 {
		for _, p := range patches {
			copy(out[p.dst:], p.src)
		}
		s.ctr.fragmentReads.Add(int64(len(patches)))
	}
	return reply, nil
}

// handleStat payload: file u64. Reply: objectLen i64, mappedExtents u32
// (fragment-index entries of this file), logBytes i64 (bytes the
// fragment log holds, across all files — what a full flush would free).
func (s *DataServer) handleStat(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	objLen, err := s.store.Size(file)
	if err != nil {
		return nil, err
	}
	mapped, held := s.bridge.stats(file)
	e := newEnc()
	e.i64(objLen)
	e.u32(uint32(mapped))
	e.i64(held)
	return e.b, nil
}

// handleFlush payload: file u64 (0 = all files). Reply: flushed bytes i64.
func (s *DataServer) handleFlush(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	flushed, err := s.flush(file, file == 0)
	if err != nil {
		return nil, err
	}
	e := newEnc()
	e.i64(flushed)
	return e.b, nil
}
