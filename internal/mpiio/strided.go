package mpiio

import (
	"repro/internal/device"
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

// Strided starts every rank of w on the loop s and runs done once all
// ranks have finished: the programs of s on World.Run, Measured the
// mark rank 0's program makes.
func (w *World) Strided(s Strided, done func()) {
	w.Run(s.programs(w.n), func(int) { s.Measured() }, done)
}

// programs returns the rank programs of the loop s for n ranks. Per
// pass, rank i thinks before its k-th request for a time drawn from its
// fork of Think (forked in rank order), issues it at Offset(i, k), and
// meets the others if Barrier. The measured pass follows the warm
// phase, if any, and rank 0 marks its start if Measured is set.
func (s Strided) programs(n int) []Program {
	if s.Jitter > 0 && s.Think == nil {
		panic("mpiio: Strided with a Jitter and no Think")
	}
	op := device.Read
	if s.Write {
		op = device.Write
	}
	// One array holds every rank's steps, rank after rank, so a point
	// allocates them once; its capacity bounds two passes of at most
	// three steps a request, the warm phase and the mark.
	steps := make([]Step, 0, int64(n)*(2*3*s.Iters+4))
	progs := make([]Program, n)
	for i := range progs {
		var think *sim.RNG
		if s.Think != nil {
			think = s.Think.Fork()
		}
		pass := func() {
			for k := int64(0); k < s.Iters; k++ {
				if s.Jitter > 0 {
					steps = append(steps, Step{Kind: Compute, D: think.Duration(0, s.Jitter)})
				}
				steps = append(steps, IO(op, s.Offset(i, k), s.Length))
				if s.Barrier {
					steps = append(steps, Step{Kind: Barrier})
				}
			}
		}
		start := len(steps)
		if s.WarmIdle > 0 {
			// The warm pass, and the quiet period between program runs
			// in which iBridge stages the fragments it identified.
			pass()
			steps = append(steps, Step{Kind: Barrier}, Step{Kind: Compute, D: s.WarmIdle}, Step{Kind: Barrier})
		}
		if i == 0 && s.Measured != nil {
			steps = append(steps, Step{Kind: Mark})
		}
		pass()
		progs[i] = steps[start:len(steps):len(steps)]
	}
	return progs
}
