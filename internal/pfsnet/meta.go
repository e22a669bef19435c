package pfsnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stripe"
)

// MetaServer is the metadata service: it owns the namespace and the
// striping layout, and tells clients which data servers hold a file.
// Connections are served by the embedded server's loop, like the data
// server's.
type MetaServer struct {
	server
	unit    int64
	servers []string // data server addresses, in stripe order

	mu     sync.Mutex
	files  map[string]fileMeta
	nextID uint64
}

type fileMeta struct {
	id   uint64
	size int64
}

// MetaConfig configures a metadata server beyond the common defaults.
type MetaConfig struct {
	// IOTimeout, when positive, bounds each frame read and reply write
	// so a stalled peer cannot pin a handler goroutine. 0 = off.
	IOTimeout time.Duration
	// FaultPlan, when set, wraps the listener with the plan's
	// connection faults; FaultScope names this server in the plan.
	FaultPlan  *faults.Plan
	FaultScope string
	// Obs, when set, receives wire-level metrics under "pfsnet.meta.*".
	Obs *obs.Registry
}

// maxUnit is the largest stripe unit whose full-unit sub-request fits a
// frame: a traced write (header, trace context, writeHdrSize, data) is
// the largest frame a unit's sub-request makes.
const maxUnit = MaxMessage - 9 - traceCtxSize - writeHdrSize

// NewMetaServer starts a metadata server on addr for a file system
// striped over the given data server addresses with the given unit.
func NewMetaServer(addr string, unit int64, dataServers []string) (*MetaServer, error) {
	return NewMetaServerConfig(addr, unit, dataServers, MetaConfig{})
}

// NewMetaServerConfig starts a metadata server with explicit
// configuration.
func NewMetaServerConfig(addr string, unit int64, dataServers []string, cfg MetaConfig) (*MetaServer, error) {
	if unit <= 0 {
		unit = stripe.DefaultUnit
	}
	// A sub-request is at most one unit, so a unit whose traced write
	// frame cannot fit MaxMessage would fail every full-unit write at the
	// client before a byte left it.
	if unit > maxUnit {
		return nil, fmt.Errorf("pfsnet meta: stripe unit %d exceeds %d, the largest a write frame carries", unit, maxUnit)
	}
	if len(dataServers) == 0 {
		return nil, fmt.Errorf("pfsnet meta: no data servers")
	}
	// Two stripe slots on one address would put different units at the
	// same object offsets of one server, so each overwrites the other.
	seen := make(map[string]bool, len(dataServers))
	for i, a := range dataServers {
		if a == "" {
			return nil, fmt.Errorf("pfsnet meta: data server %d has an empty address", i)
		}
		if seen[a] {
			return nil, fmt.Errorf("pfsnet meta: data server %s listed twice", a)
		}
		seen[a] = true
	}
	s := &MetaServer{
		unit:    unit,
		servers: append([]string(nil), dataServers...),
		files:   make(map[string]fileMeta),
		nextID:  1,
	}
	s.ioTimeout = cfg.IOTimeout
	s.wm = newWireMetrics(cfg.Obs, "pfsnet.meta.")
	s.server.dispatch = s.dispatch
	if err := s.listen(addr, cfg.FaultPlan, cfg.FaultScope); err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the server, severing open client connections. It is
// idempotent, like DataServer.Close.
func (s *MetaServer) Close() error {
	_, err := s.stop()
	return err
}

// dispatch executes one metadata request (dispatchFunc).
func (s *MetaServer) dispatch(_ *vecWriter, op byte, payload []byte) (byte, []byte, []byte) {
	var reply []byte
	var err error
	switch op {
	case opCreate:
		reply, err = s.handleCreate(payload)
	case opOpen:
		reply, err = s.handleOpen(payload)
	default:
		err = fmt.Errorf("pfsnet meta: bad opcode %d", op)
	}
	if err != nil {
		return opError, errorPayload(err), nil
	}
	return opOK, reply, nil
}

// fileReply encodes id, size, unit, and the data server list.
func (s *MetaServer) fileReply(m fileMeta) []byte {
	var e enc
	e.u64(m.id)
	e.i64(m.size)
	e.i64(s.unit)
	e.u32(uint32(len(s.servers)))
	for _, srv := range s.servers {
		e.str(srv)
	}
	return e.b
}

// handleCreate payload: name str, size i64.
func (s *MetaServer) handleCreate(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	name := d.str()
	size := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	if size <= 0 {
		return nil, fmt.Errorf("pfsnet meta: size %d must be positive", size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("pfsnet meta: file %q exists", name)
	}
	m := fileMeta{id: s.nextID, size: size}
	s.nextID++
	s.files[name] = m
	return s.fileReply(m), nil
}

// handleOpen payload: name str.
func (s *MetaServer) handleOpen(payload []byte) ([]byte, error) {
	d := dec{b: payload}
	name := d.str()
	if d.err != nil {
		return nil, d.err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("pfsnet meta: file %q not found", name)
	}
	return s.fileReply(m), nil
}
