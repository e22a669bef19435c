package pfs

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// Server is one data server: a job queue drained by a pool of handler
// processes (modelling the pvfs2-server daemon's concurrent I/O jobs),
// each of which pushes the job's block request into the server's storage
// stack.
type Server struct {
	e        *sim.Engine
	id       int
	store    Store
	jobs     *sim.Queue[*job]
	handlers int

	// Extent allocation: files receive contiguous LBN ranges with an
	// allocation-group gap between them, like Ext2 block groups.
	nextLBN  int64
	capacity int64

	// Observability sinks, installed by FileSystem.SetObs (nil when off).
	m     *obs.PFSMetrics
	tr    *obs.XTracer
	scope string
}

// parent is the client's view of one file request in flight: the
// process blocked on it and how many sub-request replies are still due.
// It owns the request's decomposition (subs, and the sibling lists of
// its fragments in sibs) and one job per sub-request. Parents are
// recycled through the FileSystem's free list, so a request in steady
// state allocates nothing.
type parent struct {
	waiter    *sim.Proc
	remaining int
	subs      []stripe.Sub
	sibs      []int
	jobs      []job
}

// newParent returns a parent for a request issued by p, off the free
// list when one is there.
func (fs *FileSystem) newParent(p *sim.Proc) *parent {
	var par *parent
	if n := len(fs.free); n > 0 {
		par, fs.free = fs.free[n-1], fs.free[:n-1]
	} else {
		par = &parent{}
	}
	par.waiter = p
	return par
}

// freeParent puts par back on the free list. Only after its waiter has
// been woken by the last reply: by then no job of par is in a server
// queue, a store or the event queue, and no store still holds one of
// its IORequests (see Store).
func (fs *FileSystem) freeParent(par *parent) {
	par.waiter = nil
	fs.free = append(fs.free, par)
}

// setJobs sizes the job slots for n sub-requests and arms the reply
// countdown. A slot keeps its parent link and bound step callback for
// the parent's lifetime; the slots are replaced only when n outgrows
// them.
func (par *parent) setJobs(n int) []job {
	if cap(par.jobs) < n {
		par.jobs = make([]job, n)
		for i := range par.jobs {
			j := &par.jobs[i]
			j.parent = par
			j.step = j.advance
		}
	}
	par.jobs = par.jobs[:n]
	par.remaining = n
	return par.jobs
}

// job is one sub-request in flight, from the client's send to the
// server's reply. It holds the block request the store sees and every
// piece of completion state, so a sub-request costs no allocation once
// its parent's slots exist.
type job struct {
	req        IORequest
	parent     *parent
	srv        *Server
	replyDelay sim.Duration
	served     bool
	// step is advance bound once per slot, reused for both network
	// legs of every sub-request the slot carries.
	step func()
}

// advance is the engine callback of both network legs: the request
// message reaching the server (queue the job), then the reply reaching
// the client (count it; the last one resumes the waiting process).
func (j *job) advance() {
	if !j.served {
		j.srv.jobs.Push(j)
		return
	}
	par := j.parent
	par.remaining--
	if par.remaining == 0 {
		j.srv.e.Wake(par.waiter)
	}
}

// allocGap is the spacing in sectors between consecutive file extents,
// so that distinct files are not artificially adjacent on disk.
const allocGap = 1 << 16 // 32 MB

func newServer(e *sim.Engine, id int, store Store, handlers int) *Server {
	s := &Server{
		e:        e,
		id:       id,
		store:    store,
		jobs:     sim.NewQueue[*job](e),
		handlers: handlers,
		nextLBN:  allocGap,
		capacity: 1 << 31, // sectors; 1 TB per server
	}
	for h := 0; h < handlers; h++ {
		e.Go(fmt.Sprintf("srv%d-h%d", id, h), s.handle)
	}
	return s
}

// ID returns the server index.
func (s *Server) ID() int { return s.id }

// Store returns the server's storage stack.
func (s *Server) Store() Store { return s.store }

// allocate reserves a contiguous extent of the given byte length and
// returns its first LBN.
func (s *Server) allocate(bytes int64) (int64, error) {
	sectors := (bytes + device.SectorSize - 1) / device.SectorSize
	if s.nextLBN+sectors > s.capacity {
		return 0, fmt.Errorf("server %d: out of space", s.id)
	}
	base := s.nextLBN
	s.nextLBN += sectors + allocGap
	return base, nil
}

// handle is one handler process: it drains the job queue forever (the
// process is terminated by the engine at the end of the simulation).
func (s *Server) handle(p *sim.Proc) {
	for {
		j, ok := s.jobs.Pop(p)
		if !ok {
			return
		}
		start := p.Now()
		s.store.Serve(p, &j.req)
		if s.m != nil {
			s.m.SubServe.ObserveDur(p.Now().Sub(start))
		}
		if s.tr != nil {
			s.tr.Span(uint64(j.req.ID), 0, 0, flowName(&j.req), s.scope, time.Unix(0, int64(start)), time.Duration(p.Now().Sub(start)))
		}
		// The reply travels back to the client.
		j.served = true
		s.e.After(j.replyDelay, j.step)
	}
}

// flowName labels a sub-request's serve span with a static string (no
// per-request formatting on the traced path).
func flowName(r *IORequest) string {
	if r.Op == device.Read {
		if r.Fragment {
			return "read-frag"
		}
		if r.Random {
			return "read-rand"
		}
		return "read"
	}
	if r.Fragment {
		return "write-frag"
	}
	if r.Random {
		return "write-rand"
	}
	return "write"
}
