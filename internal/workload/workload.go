// Package workload implements the paper's benchmark programs and trace
// replay against the simulated cluster: mpi-io-test (strided sequential
// access with configurable size/offset), ior-mpi-io (per-rank chunks,
// effectively random at the servers), a BTIO model (tiny strided records
// interleaved with computation), the Figure 3 striping-magnification
// microbenchmark, and single-process trace replay.
package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// KB and MB are decimal-free binary units used throughout the
	// benchmark configurations (the paper's "64KB" is 65536 bytes).
	KB = 1024
	MB = 1024 * KB
	GB = 1024 * MB
)

// MPIIOTestConfig parameterizes the mpi-io-test benchmark of Sections I
// and III-B: N processes iterate over a shared file; at iteration k,
// process i accesses one segment at offset k·N·s + i·s (+ Shift).
type MPIIOTestConfig struct {
	Procs       int
	RequestSize int64
	// Shift displaces every request by a constant (the paper's
	// Pattern III "+x KB offset" experiments).
	Shift int64
	// FileBytes bounds the data volume accessed (10 GB in the paper;
	// scaled down for simulation speed — shapes are volume-invariant
	// once steady state is reached).
	FileBytes int64
	Write     bool
	// Barrier inserts a barrier between access iterations (the paper
	// removes it by default to maximize concurrency).
	Barrier bool
	// Jitter is the per-rank think time drawn uniformly from
	// [0, Jitter) before each request, modelling the computation and
	// MPI overhead that makes real ranks drift apart ("uncoordinated
	// concurrent processes", Section I-A). Zero disables it; the
	// experiments use DefaultJitter.
	Jitter sim.Duration
	// Seed feeds the per-rank jitter streams.
	Seed uint64
	// Warm runs one unmeasured pass over the file first, followed by
	// an idle window long enough for iBridge to stage identified
	// fragments into the SSD. This reproduces the paper's observation
	// that production MPI programs run repeatedly with consistent
	// access patterns, so fragments cached in one run serve the next
	// (Section II-B). Use Report to read the measured pass's timing.
	Warm bool
	// WarmIdle is the idle window after the warm pass (default 5 s).
	WarmIdle sim.Duration
	// Report, when non-nil, receives the measured window (the second
	// pass when Warm, otherwise the whole run).
	Report *Report
}

// DefaultJitter is the think-time bound used by the experiments.
const DefaultJitter = 2 * sim.Millisecond

// Report is the measured window of a workload run, for runs whose
// interesting phase is narrower than the whole simulation (warm-up runs,
// BTIO's I/O phases).
type Report struct {
	Start sim.Time
	End   sim.Time
	Bytes int64
}

// Elapsed returns the measured window length.
func (r *Report) Elapsed() sim.Duration { return r.End.Sub(r.Start) }

// ThroughputMBps returns the measured window's throughput in MB/s.
func (r *Report) ThroughputMBps() float64 {
	if r.End <= r.Start {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed().Seconds() / 1e6
}

// MPIIOTest returns the benchmark as a cluster workload. Its ranks run
// the strided loop of mpiio.World.Strided.
func MPIIOTest(cfg MPIIOTestConfig) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		f, err := c.FS.Create("mpi-io-test", cfg.FileBytes+cfg.Shift+cfg.RequestSize)
		if err != nil {
			panic(err)
		}
		n := int64(cfg.Procs)
		s := cfg.RequestSize
		iters := max(cfg.FileBytes/(n*s), 1)
		var measuredStart sim.Time
		done := mpiio.NewWorld(c.Engine, c.Client(), f, cfg.Procs).Strided(mpiio.Strided{
			Iters: iters, Length: s, Write: cfg.Write,
			Offset:   func(rank int, k int64) int64 { return k*n*s + int64(rank)*s + cfg.Shift },
			Jitter:   cfg.Jitter,
			Think:    sim.NewRNG(cfg.Seed + 0x9E37),
			Barrier:  cfg.Barrier,
			WarmIdle: warmIdle(cfg.Warm, cfg.WarmIdle),
			Measured: func() { measuredStart = c.Engine.Now() },
		})
		done.Wait(p)
		if cfg.Report != nil {
			cfg.Report.Start = measuredStart
			cfg.Report.End = p.Now()
			cfg.Report.Bytes = iters * n * s
		}
	}
}

// warmIdle returns the idle window of a warmed run (default 5 s), or
// zero for a run with no warm pass.
func warmIdle(warm bool, idle sim.Duration) sim.Duration {
	if !warm {
		return 0
	}
	if idle <= 0 {
		return 5 * sim.Second
	}
	return idle
}

// IORConfig parameterizes the ior-mpi-io benchmark of Section III-C: the
// file is split into Procs equal chunks; each process accesses its chunk
// sequentially, but because all processes issue requests for the same
// relative offset concurrently, the servers see a random pattern.
type IORConfig struct {
	Procs       int
	RequestSize int64
	FileBytes   int64
	Write       bool
	// Jitter and Seed: per-rank think time as in MPIIOTestConfig.
	Jitter sim.Duration
	Seed   uint64
	// Warm, WarmIdle, Report: as in MPIIOTestConfig.
	Warm     bool
	WarmIdle sim.Duration
	Report   *Report
}

// IOR returns the benchmark as a cluster workload. Its ranks run the
// strided loop of mpiio.World.Strided, each over its own chunk.
func IOR(cfg IORConfig) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		f, err := c.FS.Create("ior-mpi-io", cfg.FileBytes+cfg.RequestSize)
		if err != nil {
			panic(err)
		}
		chunk := cfg.FileBytes / int64(cfg.Procs)
		iters := max(chunk/cfg.RequestSize, 1)
		var measuredStart sim.Time
		done := mpiio.NewWorld(c.Engine, c.Client(), f, cfg.Procs).Strided(mpiio.Strided{
			Iters: iters, Length: cfg.RequestSize, Write: cfg.Write,
			Offset:   func(rank int, k int64) int64 { return int64(rank)*chunk + k*cfg.RequestSize },
			Jitter:   cfg.Jitter,
			Think:    sim.NewRNG(cfg.Seed + 0x51D3),
			WarmIdle: warmIdle(cfg.Warm, cfg.WarmIdle),
			Measured: func() { measuredStart = c.Engine.Now() },
		})
		done.Wait(p)
		if cfg.Report != nil {
			cfg.Report.Start = measuredStart
			cfg.Report.End = p.Now()
			cfg.Report.Bytes = iters * cfg.RequestSize * int64(cfg.Procs)
		}
	}
}

// BTIOConfig parameterizes the BTIO model of Section III-D: a
// write-intensive Fortran MPI solver whose I/O consists of very small
// strided records; request size shrinks as the process count grows
// (2160 B at 9 processes down to 640 B at 100).
type BTIOConfig struct {
	Procs     int
	DataBytes int64 // 6.8 GB at computing scale C; scaled down here
	Steps     int   // solver steps, each: compute then collective write
	// ComputePerStep is each rank's computation time per step.
	ComputePerStep sim.Duration
	// FinalRead re-reads the solution for verification, as BTIO does.
	FinalRead bool
}

// RecordSize returns the BTIO request size for a process count,
// following the paper's observation (2160 B at 9 procs → 640 B at 100):
// size ≈ 6480/√procs bytes.
func RecordSize(procs int) int64 {
	s := int64(0)
	// integer sqrt
	for i := int64(1); i*i <= int64(procs); i++ {
		s = i
	}
	return 6480 / s
}

// BTIOResult carries BTIO's split of execution time, reported by Fig. 9
// (execution time) and Fig. 11 (I/O time).
type BTIOResult struct {
	IOTime    sim.Duration
	TotalTime sim.Duration
}

// BTIO returns the benchmark as a cluster workload, recording its split
// timing into res (which must outlive the run).
func BTIO(cfg BTIOConfig, res *BTIOResult) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		f, err := c.FS.Create("btio", cfg.DataBytes+64*KB)
		if err != nil {
			panic(err)
		}
		w := mpiio.NewWorld(c.Engine, c.Client(), f, cfg.Procs)
		rec := RecordSize(cfg.Procs)
		perStep := cfg.DataBytes / int64(cfg.Steps)
		recsPerRank := perStep / int64(cfg.Procs) / rec
		if recsPerRank == 0 {
			recsPerRank = 1
		}
		var ioTime sim.Duration
		start := p.Now()
		done := w.Spawn("btio", func(r *mpiio.Rank) {
			for step := 0; step < cfg.Steps; step++ {
				r.Compute(cfg.ComputePerStep)
				r.Barrier()
				ioStart := r.P.Now()
				base := int64(step) * perStep
				for j := int64(0); j < recsPerRank; j++ {
					// Interleaved strided records: rank r's j-th
					// record is adjacent to other ranks' j-th records.
					off := base + (j*int64(cfg.Procs)+int64(r.ID))*rec
					r.WriteAt(off, rec)
				}
				r.Barrier()
				if r.ID == 0 {
					ioTime += r.P.Now().Sub(ioStart)
				}
			}
			if cfg.FinalRead {
				r.Barrier()
				ioStart := r.P.Now()
				chunk := cfg.DataBytes / int64(cfg.Procs)
				for off := int64(0); off+64*KB <= chunk; off += 64 * KB {
					r.ReadAt(int64(r.ID)*chunk+off, 64*KB)
				}
				if r.ID == 0 {
					ioTime += r.P.Now().Sub(ioStart)
				}
			}
		})
		done.Wait(p)
		if res != nil {
			res.IOTime = ioTime
			res.TotalTime = p.Now().Sub(start)
		}
	}
}

// Fig3Config parameterizes the striping-magnification microbenchmark of
// Section I-A (Figure 3): Procs processes collectively issue synchronous
// requests of size K striping units (plus a 1 KB fragment when Fragment),
// while an interference program reads random 64 KB segments from the
// fragment's server (server K).
type Fig3Config struct {
	Procs    int
	K        int // servers serving non-fragment sub-requests
	Fragment bool
	Barrier  bool
	Iters    int
	Unit     int64
}

// Fig3 returns the microbenchmark as a cluster workload.
func Fig3(cfg Fig3Config) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		unit := cfg.Unit
		if unit == 0 {
			unit = 64 * KB
		}
		size := int64(cfg.K) * unit
		if cfg.Fragment {
			size += 1 * KB
		}
		stripeBytes := int64(c.Config().Servers) * unit
		fileBytes := int64(cfg.Iters)*int64(cfg.Procs)*stripeBytes + stripeBytes
		f, err := c.FS.Create("fig3", fileBytes)
		if err != nil {
			panic(err)
		}
		w := mpiio.NewWorld(c.Engine, c.Client(), f, cfg.Procs)

		// Interference: a separate file whose data lives on server K
		// (single-server layout trick: use offsets mapping to server K
		// of the shared file's address space).
		interferenceDone := false
		ifile, err := c.FS.Create("fig3-interference", fileBytes)
		if err != nil {
			panic(err)
		}
		iclient := c.Client()
		c.Engine.Go("fig3-interference", func(ip *sim.Proc) {
			rng := sim.NewRNG(c.Config().Seed + 77)
			srvK := cfg.K % c.Config().Servers
			for !interferenceDone {
				// A 64 KB-aligned unit on server K of the
				// interference file.
				stripes := fileBytes / stripeBytes
				k := rng.Range(0, stripes-1)
				off := k*stripeBytes + int64(srvK)*unit
				iclient.Read(ip, ifile, off, unit)
			}
		})

		done := w.Spawn("fig3", func(r *mpiio.Rank) {
			n := int64(cfg.Procs)
			for k := int64(0); k < int64(cfg.Iters); k++ {
				// Each process accesses its own stripe-aligned region
				// so non-fragment sub-requests go to servers 0..K-1
				// and the 1 KB fragment to server K.
				off := (k*n + int64(r.ID)) * stripeBytes
				r.ReadAt(off, size)
				if cfg.Barrier {
					r.Barrier()
				}
			}
		})
		done.Wait(p)
		interferenceDone = true
	}
}

// Replay replays a trace with a single process, as in Section III-E.
func Replay(tr *trace.Trace, fileBytes int64) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		f, err := c.FS.Create("replay:"+tr.Name, fileBytes)
		if err != nil {
			panic(err)
		}
		client := c.Client()
		tr.Clamp(fileBytes)
		done := sim.NewCounter(c.Engine, 1)
		c.Engine.Go("replay", func(rp *sim.Proc) {
			for _, rec := range tr.Records {
				if rec.Op == trace.Read {
					client.Read(rp, f, rec.Offset, rec.Size)
				} else {
					client.Write(rp, f, rec.Offset, rec.Size)
				}
			}
			done.Done()
		})
		done.Wait(p)
	}
}

// Combine runs several workloads concurrently on one cluster, returning
// when all complete (the Section III-F heterogeneous experiment).
func Combine(ws ...cluster.Workload) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		done := sim.NewCounter(c.Engine, len(ws))
		for i, w := range ws {
			w := w
			c.Engine.Go(fmt.Sprintf("combined-%d", i), func(wp *sim.Proc) {
				w(c, wp)
				done.Done()
			})
		}
		done.Wait(p)
	}
}
