// Package mpiio provides a minimal MPI-IO-style programming layer over
// the simulated parallel file system: a World of ranks, a barrier, and
// independent file reads and writes. A rank is a rank program — a list
// of steps: compute, barrier, a vector of reads or writes, a mark — and
// World.Run executes every rank's program as a chain of engine
// callbacks, not as a process. Generators make the programs: Strided's
// for the loop of mpi-io-test, ior-mpi-io, the Figure 3 microbenchmark
// and Figure 5's warmed reads; internal/workload's for BTIO and the
// trace replayer. Sieve and Collective transform a program's accesses
// as ROMIO's data sieving and two-phase I/O do. The paper's benchmarks
// are expressed against this layer in internal/workload.
package mpiio

import (
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// World is a group of MPI ranks sharing a barrier and an Issuer.
type World struct {
	e       *sim.Engine
	n       int
	barrier *sim.Barrier
	issue   Issuer
	// left counts the ranks still running their programs, and done
	// runs once none is (see Run).
	left int
	done func()
}

// Issuer issues one request of rank — op over [off, off+n) — and runs
// done once it has completed, from an event of its own, or inline when
// the request costs no I/O. A rank has at most one request in flight.
type Issuer func(rank int, op device.Op, off, n int64, done func())

// NewWorld creates a world of n ranks doing I/O on file through client.
// Each rank has its own origin-tagged client (rank i's origin is i+1),
// so the server-side CFQ scheduler sees it as a distinct process.
func NewWorld(e *sim.Engine, client *pfs.Client, file *pfs.File, n int) *World {
	w := NewWorldOn(e, n, nil)
	clients := make([]*pfs.Client, n)
	for i := range clients {
		clients[i] = client.WithOrigin(int32(i + 1))
	}
	w.issue = func(rank int, op device.Op, off, length int64, done func()) {
		clients[rank].Start(file, op, off, length, done)
	}
	return w
}

// NewWorldOn creates a world of n ranks whose programs issue their I/O
// through issue.
func NewWorldOn(e *sim.Engine, n int, issue Issuer) *World {
	if n <= 0 {
		panic("mpiio: world size must be positive")
	}
	return &World{e: e, n: n, barrier: sim.NewBarrier(e, n), issue: issue}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }
