// Package mpiio provides a minimal MPI-IO-style programming layer over
// the simulated parallel file system: a World of ranks, barriers, and
// independent file reads/writes. A rank is a process (Spawn), or a
// chain of engine callbacks running the strided loop of mpi-io-test and
// ior-mpi-io (World.Strided). The paper's benchmarks (mpi-io-test,
// ior-mpi-io, BTIO) are expressed against this layer in
// internal/workload.
package mpiio

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// World is a group of MPI ranks sharing a file and a barrier.
type World struct {
	e       *sim.Engine
	n       int
	barrier *sim.Barrier
	client  *pfs.Client
	file    *pfs.File
}

// NewWorld creates a world of n ranks doing I/O on file through client.
func NewWorld(e *sim.Engine, client *pfs.Client, file *pfs.File, n int) *World {
	if n <= 0 {
		panic("mpiio: world size must be positive")
	}
	return &World{e: e, n: n, barrier: sim.NewBarrier(e, n), client: client, file: file}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// File returns the world's shared file.
func (w *World) File() *pfs.File { return w.file }

// Rank is one MPI rank run as a process (Spawn).
type Rank struct {
	ID     int
	P      *sim.Proc
	w      *World
	client *pfs.Client
}

// Spawn launches fn as every rank's body and returns a counter that
// reaches zero when all ranks have finished. Each rank gets its own
// origin-tagged client so the server-side CFQ scheduler sees it as a
// distinct process.
func (w *World) Spawn(name string, fn func(r *Rank)) *sim.Counter {
	done := sim.NewCounter(w.e, w.n)
	for i := 0; i < w.n; i++ {
		i := i
		rc := w.client.WithOrigin(int32(i + 1))
		w.e.Go(fmt.Sprintf("%s:rank%d", name, i), func(p *sim.Proc) {
			fn(&Rank{ID: i, P: p, w: w, client: rc})
			done.Done()
		})
	}
	return done
}

// Barrier synchronizes all ranks (MPI_Barrier).
func (r *Rank) Barrier() { r.w.barrier.Wait(r.P) }

// ReadAt issues a synchronous read and returns its service time.
func (r *Rank) ReadAt(off, n int64) sim.Duration {
	return r.client.Read(r.P, r.w.file, off, n)
}

// WriteAt issues a synchronous write and returns its service time.
func (r *Rank) WriteAt(off, n int64) sim.Duration {
	return r.client.Write(r.P, r.w.file, off, n)
}

// Compute models a computation phase of duration d.
func (r *Rank) Compute(d sim.Duration) { r.P.Sleep(d) }
