package mpiio

import (
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Strided is the loop of the paper's strided benchmarks, mpi-io-test and
// ior-mpi-io, and of the Figure 3 microbenchmark: every rank issues Iters
// independent requests of Length bytes per pass, each after an optional
// think time and followed by an optional barrier. The benchmarks differ
// only in Offset.
type Strided struct {
	// Iters is each rank's request count per pass, Length and Write
	// each request's size and direction.
	Iters  int64
	Length int64
	Write  bool
	// Offset returns the file offset of rank's k-th request of a pass.
	Offset func(rank int, k int64) int64
	// Jitter bounds the think time before each request, drawn
	// uniformly from [0, Jitter) from the rank's fork of Think (forked
	// in rank order). Zero: no think time.
	Jitter sim.Duration
	Think  *sim.RNG
	// Barrier puts a barrier after every request.
	Barrier bool
	// WarmIdle, when positive, runs an unmeasured warm pass first and
	// then, between two barriers, an idle window of WarmIdle before the
	// measured pass.
	WarmIdle sim.Duration
	// Measured, when non-nil, runs on rank 0 as the measured pass
	// begins, after the warm phase.
	Measured func()
}

// Strided starts every rank of w on the loop s and returns a counter
// that reaches zero when all ranks have finished. A rank is no process
// but a chain of engine callbacks, each step an event in the place the
// same step of a rank process would take: a rank starts from an event
// at the current instant, thinks by After, issues its requests with
// pfs.Client.Start and meets the others with Barrier.Arrive. Each rank
// has its own origin-tagged client, as with Spawn.
func (w *World) Strided(s Strided) *sim.Counter {
	if s.Jitter > 0 && s.Think == nil {
		panic("mpiio: Strided with a Jitter and no Think")
	}
	done := sim.NewCounter(w.e, w.n)
	passes := 1
	if s.WarmIdle > 0 {
		passes = 2
	}
	op := device.Read
	if s.Write {
		op = device.Write
	}
	for i := 0; i < w.n; i++ {
		r := &stridedRank{s: &s, w: w, id: i, client: w.client.WithOrigin(int32(i + 1)),
			op: op, passes: passes, done: done}
		if s.Think != nil {
			r.rng = s.Think.Fork()
		}
		r.warmIdleFn, r.warmEndFn, r.loopFn = r.warmIdle, r.warmEnd, r.loop
		r.requestFn, r.repliedFn, r.nextFn = r.request, r.replied, r.next
		w.e.After(0, r.beginPass)
	}
	return done
}

// stridedRank is one rank of a Strided loop: where it is in the loop,
// and its steps bound once, so that a step allocates nothing.
type stridedRank struct {
	s      *Strided
	w      *World
	id     int
	client *pfs.Client
	rng    *sim.RNG
	op     device.Op
	done   *sim.Counter
	passes int
	pass   int
	k      int64

	warmIdleFn, warmEndFn, loopFn, requestFn, repliedFn, nextFn func()
}

// beginPass opens a pass, the rank's first step: the measured pass with
// the warm phase's first barrier when there is one.
func (r *stridedRank) beginPass() {
	if r.pass == r.passes-1 && r.s.WarmIdle > 0 {
		r.w.barrier.Arrive(r.warmIdleFn)
		return
	}
	r.loop()
}

// warmIdle is the quiet period between program runs in which iBridge
// stages the fragments the warm pass identified.
func (r *stridedRank) warmIdle() { r.w.e.After(r.s.WarmIdle, r.warmEndFn) }

// warmEnd meets the others at the warm phase's second barrier.
func (r *stridedRank) warmEnd() { r.w.barrier.Arrive(r.loopFn) }

// loop runs a pass's requests from the first.
func (r *stridedRank) loop() {
	if r.pass == r.passes-1 && r.id == 0 && r.s.Measured != nil {
		r.s.Measured()
	}
	r.k = 0
	r.step()
}

// step thinks before request k, or ends the pass.
func (r *stridedRank) step() {
	if r.k == r.s.Iters {
		r.pass++
		if r.pass == r.passes {
			r.done.Done()
			return
		}
		r.beginPass()
		return
	}
	if r.s.Jitter > 0 {
		r.w.e.After(r.rng.Duration(0, r.s.Jitter), r.requestFn)
		return
	}
	r.request()
}

func (r *stridedRank) request() {
	r.client.Start(r.w.file, r.op, r.s.Offset(r.id, r.k), r.s.Length, r.repliedFn)
}

// replied follows request k's completion: the barrier, if any, then the
// next request.
func (r *stridedRank) replied() {
	if r.s.Barrier {
		r.w.barrier.Arrive(r.nextFn)
		return
	}
	r.next()
}

func (r *stridedRank) next() {
	r.k++
	r.step()
}
