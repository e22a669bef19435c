package pfsnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// DataServer stores the per-server striped objects and serves read/write
// sub-requests over TCP. When Bridge is enabled, flagged sub-requests
// (fragments and regular random requests) are appended to the fragment
// log (bridge.go) — the functional analogue of iBridge's SSD cache — and
// drained back to the object store on Flush.
//
// Connections are served by the embedded server's loop, so requests on
// one connection execute in arrival order and concurrency comes from
// connections. Server state is split so requests on different
// connections do not serialize behind one lock: the fragment log has its
// own (logMu, in the bridge), counters are atomic, and object-store I/O
// runs outside both.
type DataServer struct {
	server
	bridge *bridge // the fragment log; never nil, inert when the server runs without iBridge
	store  ObjectStore

	// SSD-device failure: when the fault plan schedules a device failure
	// for this server (or FailSSD is called), the fragment log is
	// drained once and the server degrades gracefully to the direct
	// store path — iBridge's cache is an accelerator, so losing it must
	// cost performance, never bytes.
	plan         *faults.Plan
	ssdFailAfter int64 // fragment-log writes until the device fails; 0 = never

	ctr dataCounters
}

// ServerConfig configures a data server beyond the common defaults.
type ServerConfig struct {
	// Bridge enables the iBridge fragment log.
	Bridge bool
	// Store is the backing object store (default: in-memory).
	Store ObjectStore
	// Obs, when set, receives wire-level metrics under
	// "pfsnet.server.*".
	Obs *obs.Registry
	// Tracer, when set, records server-side spans (queue-wait, store,
	// respond) under the trace context of requests that carry one on
	// the wire; a nil tracer costs one pointer test.
	Tracer *obs.XTracer
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
}

// NewDataServer starts a data server listening on addr (use
// "127.0.0.1:0" for an ephemeral port) with an in-memory object store.
// bridge enables the fragment log.
func NewDataServer(addr string, bridge bool) (*DataServer, error) {
	return NewDataServerConfig(addr, ServerConfig{Bridge: bridge})
}

// NewDataServerConfig starts a data server with explicit configuration.
func NewDataServerConfig(addr string, cfg ServerConfig) (*DataServer, error) {
	store := cfg.Store
	if store == nil {
		store = NewMemStore()
	}
	s := &DataServer{
		bridge: newBridge(cfg.Bridge),
		store:  store,
		plan:   cfg.FaultPlan,
	}
	s.ioTimeout = cfg.IOTimeout
	s.wm = newWireMetrics(cfg.Obs, "pfsnet.server.")
	s.tracer = cfg.Tracer
	s.server.dispatch = s.dispatch
	if n, ok := cfg.FaultPlan.SSDFailWrites(cfg.FaultScope); ok {
		s.ssdFailAfter = n
	}
	if err := s.listen(addr, cfg.FaultPlan, cfg.FaultScope); err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		s.bridge.register(cfg.Obs, "pfsnet.server.bridge.")
	}
	return s, nil
}

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
	first, err := s.stop()
	if !first {
		return nil
	}
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

// dispatch executes one request (server.dispatch).
func (s *DataServer) dispatch(w *vecWriter, op byte, payload []byte) (byte, []byte, []byte) {
	var reply, data []byte
	var err error
	switch op {
	case opWrite:
		err = s.handleWrite(payload)
	case opRead:
		data, err = s.handleRead(w, payload)
	case opFlush:
		reply, err = s.handleFlush(payload)
	default:
		err = fmt.Errorf("pfsnet data: bad opcode %d", op)
	}
	if err != nil {
		return opError, errorPayload(err), nil
	}
	return opOK, reply, data
}

// handleWrite payload: file u64, off i64, flags u8 (1 = fragment/random), data bytes.
// Reply: empty.
func (s *DataServer) handleWrite(payload []byte) error {
	d := dec{b: payload}
	file := d.u64()
	off := d.i64()
	flags := d.u8()
	data := d.bytes()
	if d.err != nil {
		return d.err
	}
	if off < 0 || int64(len(data)) > math.MaxInt64-off {
		return fmt.Errorf("pfsnet data: bad write [%d,+%d)", off, len(data))
	}
	s.ctr.writes.Add(1)
	s.ctr.wrBytes.Add(int64(len(data)))
	if flags&1 != 0 && s.bridge.write(file, off, data) {
		// iBridge path: the write is in the fragment log, mapped over
		// whatever older fragments it overlapped.
		s.ctr.fragmentWrites.Add(1)
		s.ctr.logBytes.Add(int64(len(data)))
		if s.ssdFailAfter > 0 && s.ctr.fragmentWrites.Load() >= s.ssdFailAfter {
			// The scheduled device failure trips on this write: drain the
			// log (this write included) and degrade to the direct path.
			return s.FailSSD()
		}
		return nil
	}
	// Direct path: the write supersedes any fragment mapped in its range
	// (and waits out a write-back of that range already in flight, so
	// older bytes cannot land over it).
	s.bridge.punch(file, off, int64(len(data)))
	return s.store.WriteAt(file, off, data)
}

// FailSSD fails this server's SSD (fragment log) device immediately:
// the log takes no more writes, is drained back to the object store
// once, and all further flagged writes take the direct path — graceful
// degradation, the pfsnet analogue of the sim bridge handing fragments
// back to the HDD. Only the fragment log fails: the object store (the
// disk) keeps serving and stays as durable as it was. Safe to call more
// than once.
func (s *DataServer) FailSSD() error {
	if !s.bridge.fail() {
		return nil
	}
	s.plan.NoteSSDFail()
	_, err := s.flush(0, true)
	return err
}

// SSDFailed reports whether the SSD device has failed (by schedule or
// FailSSD) and the server is running degraded.
func (s *DataServer) SSDFailed() bool { return s.bridge.down.Load() }

// maxReadLen is the longest read whose reply frame — a length prefix and
// the data — fits MaxMessage.
const maxReadLen = MaxMessage - 9 - 4

// handleRead payload: file u64, off i64, length i64.
// Reply: data bytes — a length prefix then the data, which the store
// reads straight into memory the writer w lends until its flush.
func (s *DataServer) handleRead(w *vecWriter, payload []byte) ([]byte, error) {
	d := dec{b: payload}
	file := d.u64()
	off := d.i64()
	length := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	if off < 0 || length < 0 || length > maxReadLen || off > math.MaxInt64-length {
		return nil, fmt.Errorf("pfsnet data: bad read [%d,+%d)", off, length)
	}
	s.ctr.reads.Add(1)
	s.ctr.readBytes.Add(length)
	reply := w.reserve(4 + int(length))
	binary.BigEndian.PutUint32(reply[:4], uint32(length))
	out := reply[4:]
	// The mapped log extents are newer than the object. Their snapshot
	// is taken before the store read and laid over it after (see
	// bridge.overlay for why the order matters).
	var few [4]patch
	patches := s.bridge.overlay(file, off, length, few[:0])
	if err := s.store.ReadAt(file, off, out); err != nil {
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
	var e enc
	e.i64(flushed)
	return e.b, nil
}
