package pfs

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// Server is one data server: a FIFO of jobs and a fixed number of slots
// (modelling the pvfs2-server daemon's concurrent I/O jobs), each of
// which starts one job's block request in the server's storage stack at
// a time. No process runs a slot: a job advances when its store runs
// its continuation, as a pvfs2-server job advances when its Trove I/O
// completes.
//
// The slots behave exactly as a pool of handler processes draining a
// job queue would, event for event: a push that finds a parked slot
// schedules one wake at the current instant; the wake starts the head
// job, or parks the slot again if another slot took it first; a slot
// whose job completes sends the reply and starts the next queued job
// at once, or parks.
type Server struct {
	e     *sim.Engine
	id    int
	store Store
	// jobs holds the jobs waiting for a slot; parked counts the slots
	// with no job and no wake due. wakeFn is wake bound once.
	jobs   sim.Ring[*job]
	parked int
	wakeFn func()

	// Extent allocation: files receive contiguous LBN ranges with an
	// allocation-group gap between them, like Ext2 block groups.
	nextLBN  int64
	capacity int64

	// Observability sinks, installed by FileSystem.SetObs (nil when off).
	m     *obs.PFSMetrics
	tr    *obs.XTracer
	scope string
}

// parent is the client's view of one file request in flight: what the
// request is, the continuation to run when it completes (Client.Start's
// done), and how many sub-request replies are still due. It owns the
// request's decomposition (subs, and the sibling lists of its fragments
// in sibs) and one job per sub-request. Parents are recycled through the FileSystem's free list,
// so a request in steady state allocates nothing.
type parent struct {
	fs        *FileSystem
	then      func()
	remaining int
	subs      []stripe.Sub
	sibs      []int
	jobs      []job
	// The request, for its accounting at completion.
	op     device.Op
	length int64
	start  sim.Time
	reqID  int64
	// finishFn is finish bound once: the completion event.
	finishFn func()
}

// newParent returns a parent for a request, off the free list when one
// is there.
func (fs *FileSystem) newParent() *parent {
	if n := len(fs.free); n > 0 {
		par := fs.free[n-1]
		fs.free = fs.free[:n-1]
		return par
	}
	par := &parent{fs: fs}
	par.finishFn = par.finish
	return par
}

// freeParent puts par back on the free list. Only after its last reply
// has come: by then no job of par is in a server queue, a store or the
// event queue, and no store still holds one of its IORequests (see
// Store).
func (fs *FileSystem) freeParent(par *parent) {
	par.then = nil
	fs.free = append(fs.free, par)
}

// setJobs sizes the job slots for n sub-requests and arms the reply
// countdown. A slot keeps its parent link and bound callbacks for the
// parent's lifetime; the slots are replaced only when n outgrows them.
func (par *parent) setJobs(n int) []job {
	if cap(par.jobs) < n {
		par.jobs = make([]job, n)
		for i := range par.jobs {
			j := &par.jobs[i]
			j.parent = par
			j.step, j.finished = j.advance, j.finish
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
	// start is when the store began the job; starting is set while
	// the store's Start is on the stack, to tell an inline completion.
	start    sim.Time
	starting bool
	// step is advance bound once per slot, reused for both network
	// legs of every sub-request the slot carries; finished is finish,
	// the store's continuation.
	step, finished func()
}

// advance is the engine callback of both network legs: the request
// message reaching the server (queue the job), then the reply reaching
// the client (count it). The last reply schedules the request's
// completion event.
func (j *job) advance() {
	if !j.served {
		j.srv.push(j)
		return
	}
	par := j.parent
	par.remaining--
	if par.remaining == 0 {
		j.srv.e.After(0, par.finishFn)
	}
}

// allocGap is the spacing in sectors between consecutive file extents,
// so that distinct files are not artificially adjacent on disk.
const allocGap = 1 << 16 // 32 MB

func newServer(e *sim.Engine, id int, store Store, slots int) *Server {
	s := &Server{
		e:        e,
		id:       id,
		store:    store,
		parked:   slots,
		nextLBN:  allocGap,
		capacity: 1 << 31, // sectors; 1 TB per server
	}
	s.wakeFn = s.wake
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

// push queues a job that has reached the server and, if a slot is
// parked, schedules its wake.
func (s *Server) push(j *job) {
	s.jobs.Push(j)
	if s.parked > 0 {
		s.parked--
		s.e.After(0, s.wakeFn)
	}
}

// wake is a parked slot's wake: it starts the head job, or parks again
// when another slot has taken it meanwhile.
func (s *Server) wake() { s.serve(s.next()) }

// next takes the head job for a slot that has none, or parks the slot
// and returns nil when the FIFO is empty.
func (s *Server) next() *job {
	if s.jobs.Len() == 0 {
		s.parked++
		return nil
	}
	return s.jobs.Pop()
}

// serve starts j on its slot, and then each next job whose predecessor
// completed inline, until the store keeps one (its continuation comes
// from a later event) or the slot parks.
func (s *Server) serve(j *job) {
	for j != nil {
		j.start, j.starting = s.e.Now(), true
		s.store.Start(&j.req, j.finished)
		if j.starting {
			j.starting = false // the store completes it later
			return
		}
		j = s.next()
	}
}

// finish is the store's continuation for j: the reply travels back to
// the client, and the slot takes the next job — in serve's loop if j
// completed inline, here otherwise.
func (j *job) finish() {
	s := j.srv
	now := s.e.Now()
	if s.m != nil {
		s.m.SubServe.ObserveDur(now.Sub(j.start))
	}
	if s.tr != nil {
		s.tr.Span(uint64(j.req.ID), 0, 0, flowName(&j.req), s.scope, time.Unix(0, int64(j.start)), time.Duration(now.Sub(j.start)))
	}
	j.served = true
	s.e.After(j.replyDelay, j.step)
	if j.starting {
		j.starting = false
		return
	}
	s.serve(s.next())
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
