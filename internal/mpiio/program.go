package mpiio

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
)

// Kind is what a program step does.
type Kind uint8

const (
	// Compute occupies the rank for the step's D.
	Compute Kind = iota
	// Barrier waits for every rank of the world (MPI_Barrier).
	Barrier
	// Read and Write issue the step's vector of requests, one after
	// another, each once the one before has completed.
	Read
	Write
	// Mark runs the Run's mark callback, with nothing to wait for.
	Mark
)

// Step is one step of a rank program. A Read or Write step is a vector
// of Count requests of Len bytes, the i-th at Off + i·Stride.
type Step struct {
	Kind                    Kind
	D                       sim.Duration
	Off, Len, Stride, Count int64
}

// Program is one rank's steps, run in order.
type Program []Step

// IO returns the one-request step of op over [off, off+n).
func IO(op device.Op, off, n int64) Step {
	if op == device.Write {
		return Step{Kind: Write, Off: off, Len: n, Count: 1}
	}
	return Step{Kind: Read, Off: off, Len: n, Count: 1}
}

// Pieces appends the (offset, length) list of an I/O step to dst.
func (s Step) Pieces(dst []Piece) []Piece {
	for i := int64(0); i < s.Count; i++ {
		dst = append(dst, Piece{Off: s.Off + i*s.Stride, Len: s.Len})
	}
	return dst
}

// Run starts rank i of w on progs[i] and runs done, from an event of
// its own, once every rank has finished; a rank runs mark(rank) at each
// of its Mark steps. A rank is no process but a chain of engine
// callbacks, each step an event in the place the same step of a rank
// process would take: a rank starts from an event at the current
// instant, computes by After, meets the others with Barrier.Arrive and
// issues each request through w's Issuer, going on from its completion.
// A step allocates nothing. A world runs one set of programs.
func (w *World) Run(progs []Program, mark func(rank int), done func()) {
	if len(progs) != w.n {
		panic(fmt.Sprintf("mpiio: %d programs for %d ranks", len(progs), w.n))
	}
	w.left, w.done = w.n, done
	for i, prog := range progs {
		r := &rank{w: w, id: i, prog: prog, mark: mark}
		r.runFn, r.resumeFn = r.run, r.resume
		w.e.After(0, r.runFn)
	}
}

// rank is one rank running its program: where it is, and its
// continuations bound once.
type rank struct {
	w    *World
	id   int
	prog Program
	pc   int   // the current step
	k    int64 // requests of the current I/O step issued
	mark func(rank int)
	// waiting is set while a barrier's Arrive or a request's issue is
	// on the stack, to tell a continuation that runs inline.
	waiting bool

	runFn, resumeFn func()
}

// run runs the program from the current step until a step waits for an
// event, or to its end. A barrier or request that completes inline goes
// on in the loop rather than in a nested call.
func (r *rank) run() {
	for r.pc < len(r.prog) {
		s := &r.prog[r.pc]
		switch s.Kind {
		case Compute:
			r.pc++
			r.w.e.After(s.D, r.runFn)
			return
		case Barrier:
			r.pc++
			r.waiting = true
			r.w.barrier.Arrive(r.resumeFn)
		case Read, Write:
			if r.k == s.Count {
				r.k = 0
				r.pc++
				continue
			}
			off := s.Off + r.k*s.Stride
			r.k++
			op := device.Read
			if s.Kind == Write {
				op = device.Write
			}
			r.waiting = true
			r.w.issue(r.id, op, off, s.Len, r.resumeFn)
		case Mark:
			r.pc++
			r.mark(r.id)
			continue
		default:
			panic(fmt.Sprintf("mpiio: step kind %d", s.Kind))
		}
		if r.waiting {
			r.waiting = false // the continuation comes from an event
			return
		}
	}
	if r.w.left--; r.w.left == 0 {
		r.w.e.After(0, r.w.done)
	}
}

// resume is the continuation of a barrier or request: run on from an
// event, or, inline, only note that the step is over.
func (r *rank) resume() {
	if r.waiting {
		r.waiting = false
		return
	}
	r.run()
}
