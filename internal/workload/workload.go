// Package workload implements the paper's benchmark programs and trace
// replay against the simulated cluster: mpi-io-test (strided sequential
// access with configurable size/offset) and ior-mpi-io (per-rank chunks,
// effectively random at the servers), two wrappers of one builder that
// differ only in where each request lands; the Figure 3
// striping-magnification microbenchmark, whose ranks run the same loop
// (mpiio.World.Strided); a BTIO model (tiny strided records interleaved
// with computation); and single-process trace replay.
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

// MPIIOTestConfig parameterizes the paper's strided benchmarks,
// mpi-io-test (Sections I and III-B) and ior-mpi-io (Section III-C): N
// processes each issue independent requests of one size over a shared
// file. The benchmarks differ only in where a process's k-th request
// lands (see MPIIOTest and IOR).
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
	// an idle window (5 s) long enough for iBridge to stage
	// identified fragments into the SSD. This reproduces the paper's
	// observation that production MPI programs run repeatedly with
	// consistent access patterns, so fragments cached in one run serve
	// the next (Section II-B). Use Report to read the measured pass's
	// timing.
	Warm bool
	// Report, when non-nil, receives the measured window (the second
	// pass when Warm, otherwise the whole run).
	Report *Report
}

// DefaultJitter is the think-time bound used by the experiments.
const DefaultJitter = 2 * sim.Millisecond

// warmIdle is the idle window between a warm pass and the measured pass.
const warmIdle = 5 * sim.Second

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

// MPIIOTest returns the mpi-io-test benchmark as a cluster workload: at
// iteration k, process i accesses the segment at k·N·s + i·s + Shift.
func MPIIOTest(cfg MPIIOTestConfig) cluster.Workload {
	n, s := int64(cfg.Procs), cfg.RequestSize
	return strided(cfg, "mpi-io-test", 0x9E37, max(cfg.FileBytes/(n*s), 1),
		func(rank int, k int64) int64 { return k*n*s + int64(rank)*s + cfg.Shift })
}

// IOR returns the ior-mpi-io benchmark as a cluster workload: the file
// is split into Procs equal chunks and each process accesses its chunk
// sequentially, but because all processes issue requests for the same
// relative offset concurrently, the servers see a random pattern.
func IOR(cfg MPIIOTestConfig) cluster.Workload {
	chunk := cfg.FileBytes / int64(cfg.Procs)
	return strided(cfg, "ior-mpi-io", 0x51D3, max(chunk/cfg.RequestSize, 1),
		func(rank int, k int64) int64 { return int64(rank)*chunk + k*cfg.RequestSize + cfg.Shift })
}

// strided is the one builder of the strided benchmarks: cfg's ranks run
// iters requests each per pass on mpiio.World.Strided over a file name,
// rank i's k-th at offset(i, k), their think times drawn from a stream
// seeded with cfg.Seed + salt.
func strided(cfg MPIIOTestConfig, name string, salt uint64, iters int64, offset func(rank int, k int64) int64) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		f, err := c.FS.Create(name, cfg.FileBytes+cfg.Shift+cfg.RequestSize)
		if err != nil {
			panic(err)
		}
		var idle sim.Duration
		if cfg.Warm {
			idle = warmIdle
		}
		var measuredStart sim.Time
		done := mpiio.NewWorld(c.Engine, c.Client(), f, cfg.Procs).Strided(mpiio.Strided{
			Iters: iters, Length: cfg.RequestSize, Write: cfg.Write, Offset: offset,
			Jitter:   cfg.Jitter,
			Think:    sim.NewRNG(cfg.Seed + salt),
			Barrier:  cfg.Barrier,
			WarmIdle: idle,
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
// while an interference program reads random striping units from the
// fragment's server (server K).
type Fig3Config struct {
	Procs    int
	K        int // servers serving non-fragment sub-requests
	Fragment bool
	Barrier  bool
	Iters    int
}

// Fig3 returns the microbenchmark as a cluster workload. Its ranks run
// mpiio.World.Strided with no think time; the interference program is a
// process.
func Fig3(cfg Fig3Config) cluster.Workload {
	return func(c *cluster.Cluster, p *sim.Proc) {
		unit := c.Config().StripeUnit
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
				// A striping unit on server K of the
				// interference file.
				stripes := fileBytes / stripeBytes
				k := rng.Range(0, stripes-1)
				off := k*stripeBytes + int64(srvK)*unit
				iclient.Read(ip, ifile, off, unit)
			}
		})

		// Each process accesses its own stripe-aligned region so
		// non-fragment sub-requests go to servers 0..K-1 and the 1 KB
		// fragment to server K.
		n := int64(cfg.Procs)
		done := w.Strided(mpiio.Strided{
			Iters: int64(cfg.Iters), Length: size, Barrier: cfg.Barrier,
			Offset: func(rank int, k int64) int64 { return (k*n + int64(rank)) * stripeBytes },
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
