package pfs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// slotJob is one job of FuzzServerSlots: when it reaches the server
// after the previous one, how long its store takes (0: it completes
// inline, as a readahead cache hit does) and how long its reply takes.
type slotJob struct {
	gap, svc, reply sim.Duration
}

// slotLog records, in order, each job's start in the store and each
// reply's arrival, with the instant.
type slotLog struct {
	e    *sim.Engine
	ents []string
}

func (l *slotLog) note(what string, id int64) {
	l.ents = append(l.ents, fmt.Sprintf("%s %d @%v", what, id, l.e.Now()))
}

// slotStore completes job k svc[k] after its start, from an event of its
// own scheduled by the completion, as a block queue does; a job with no
// service time completes inline.
type slotStore struct {
	log *slotLog
	svc []sim.Duration
}

func (s *slotStore) Start(r *IORequest, done func()) {
	s.log.note("start", r.ID)
	d := s.svc[r.ID]
	if d == 0 {
		done()
		return
	}
	e := s.log.e
	e.After(d, func() { e.After(0, done) })
}

func (s *slotStore) Flush(done func()) { done() }

// newSlotJobs builds the jobs for srv with their replies logged, and
// schedules their arrivals, push being how a job reaches the server.
func newSlotJobs(log *slotLog, srv *Server, jobs []slotJob, push func(*job)) {
	var at sim.Duration
	for k, sj := range jobs {
		j := &job{srv: srv, replyDelay: sj.reply, req: IORequest{ID: int64(k)}}
		j.step = func() { log.note("reply", j.req.ID) }
		j.finished = j.finish
		at += sj.gap
		log.e.After(at, func() { push(j) })
	}
}

// runSlots runs jobs through a server of the given slots and returns
// the log.
func runSlots(jobs []slotJob, slots int) []string {
	log := &slotLog{e: sim.New()}
	store := &slotStore{log: log}
	for _, sj := range jobs {
		store.svc = append(store.svc, sj.svc)
	}
	srv := newServer(log.e, 0, store, slots)
	newSlotJobs(log, srv, jobs, srv.push)
	if err := log.e.Run(); err != nil {
		panic(err)
	}
	return log.ents
}

// runHandlers runs the same jobs through the pool of handler processes
// that the slots replace, over a job queue of processes parked in FIFO
// order: the reference.
func runHandlers(jobs []slotJob, slots int) []string {
	log := &slotLog{e: sim.New()}
	e := log.e
	var items sim.Ring[*job]
	var parked sim.Ring[*sim.Proc]
	push := func(j *job) {
		items.Push(j)
		if parked.Len() > 0 {
			e.Wake(parked.Pop())
		}
	}
	for h := 0; h < slots; h++ {
		e.Go("handler", func(p *sim.Proc) {
			for {
				for items.Len() == 0 {
					parked.Push(p)
					p.Block()
				}
				j := items.Pop()
				log.note("start", j.req.ID)
				if d := jobs[j.req.ID].svc; d > 0 {
					e.After(d, func() { e.Wake(p) })
					p.Block()
				}
				e.After(j.replyDelay, j.step)
			}
		})
	}
	newSlotJobs(log, nil, jobs, push)
	if err := e.Run(); err != nil && err != sim.ErrDeadlock {
		panic(err)
	}
	return log.ents
}

// FuzzServerSlots holds a data server's slots to the handler processes
// they replace: for any arrivals (several at one instant), 1–8 slots and
// any service times (inline completions included), every job starts in
// the store, and every reply arrives, in the same order and at the same
// instant. A byte triple per job gives its arrival gap, service time
// and reply delay in multiples of one quantum, so events tie often.
func FuzzServerSlots(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 0, 1, 0, 0, 0, 2, 1, 3, 1, 2, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 2, 1, 1, 0, 0, 0, 0, 3, 1})
	f.Add([]byte{7, 0, 3, 2, 0, 2, 1, 0, 0, 0, 0, 1, 0, 1, 3, 0, 0, 2, 2, 2, 1, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 1, 0, 0, 0, 0, 2, 0, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const q = 100 * sim.Microsecond
		slots := 1 + int(data[0]%8)
		var jobs []slotJob
		for b := data[1:]; len(b) >= 3 && len(jobs) < 64; b = b[3:] {
			jobs = append(jobs, slotJob{
				gap:   sim.Duration(b[0]%3) * q,
				svc:   sim.Duration(b[1]%4) * q,
				reply: sim.Duration(b[2]%3) * q,
			})
		}
		want, got := runHandlers(jobs, slots), runSlots(jobs, slots)
		if !slices.Equal(got, want) {
			t.Fatalf("%d slots, jobs %v:\n got %q\nwant %q", slots, jobs, got, want)
		}
	})
}
