package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/plfs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("ext-plfs", extPLFS)
}

// extPLFS compares the two answers to unaligned checkpoint writes that
// the paper's related work contrasts: PLFS's client-side log
// restructuring (writes become sequential, reads scatter) vs iBridge's
// server-side SSD absorption (writes unchanged in layout, fragments
// absorbed; reads keep locality). The workload is a +10KB-offset
// checkpoint whose pieces are written in data-dependent (shuffled)
// order — as real solvers emit them — followed by a sequential restart
// read. PLFS turns the shuffled writes into pure log appends but its
// restart reads then follow the shuffle through the logs; iBridge keeps
// the logical layout, so the restart stays sequential.
func extPLFS(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ext-plfs",
		Title:   "unaligned checkpoint write + sequential restart read (64 procs)",
		Columns: []string{"system", "write time (s)", "read time (s)", "total (s)"},
	}
	const procs = 64
	const req = 64 * kb
	const shift = 10 * kb
	fileBytes := s.MPIIOBytes

	// run writes the checkpoint, the mpi-io-test pattern with a +10KB
	// displacement in shuffled iteration order, then every rank reads
	// its share back sequentially. Stock and iBridge issue both to a
	// file of the cluster's mode; PLFS issues the same logical writes
	// through the log mount on a stock cluster, and the restart reads
	// resolve through the index.
	run := func(mode cluster.Mode, viaPLFS bool) (write, read sim.Duration, err error) {
		c, err := cluster.New(baseConfig(s, mode))
		if err != nil {
			return 0, 0, err
		}
		var writeEnd, readEnd sim.Time
		res, err := c.Run(func(cl *cluster.Cluster, p *sim.Proc) {
			var f *pfs.File
			var m *plfs.Mount
			var err error
			if viaPLFS {
				m, err = plfs.Create(cl.FS, "ckpt", fileBytes+shift+req, procs)
			} else {
				f, err = cl.FS.Create("ckpt", fileBytes+shift+req)
			}
			if err != nil {
				panic(err)
			}
			writeAt := func(r *mpiio.Rank, off int64) {
				if m == nil {
					r.WriteAt(off, req)
				} else if err := m.WriteAt(r.P, r.ID, off, req); err != nil {
					panic(err)
				}
			}
			readAt := func(r *mpiio.Rank, off int64) {
				if m == nil {
					r.ReadAt(off, req)
				} else if _, err := m.ReadAt(r.P, off, req); err != nil {
					panic(err)
				}
			}
			rng := sim.NewRNG(11)
			rngs := make([]*sim.RNG, procs)
			for i := range rngs {
				rngs[i] = rng.Fork()
			}
			iters := fileBytes / (procs * req)
			perm := sim.NewRNG(99).Perm(int(iters))
			mpiio.NewWorld(cl.Engine, cl.Client(), f, procs).Spawn("ckpt", func(r *mpiio.Rank) {
				for _, ki := range perm {
					r.Compute(rngs[r.ID].Duration(0, workload.DefaultJitter))
					writeAt(r, int64(ki)*procs*req+int64(r.ID)*req+shift)
				}
				r.Barrier()
				if r.ID == 0 {
					writeEnd = r.P.Now()
				}
				r.Barrier()
				// Restart: sequential read-back of the rank's share.
				chunk := fileBytes / procs
				for off := int64(0); off+req <= chunk; off += req {
					r.Compute(rngs[r.ID].Duration(0, workload.DefaultJitter))
					readAt(r, int64(r.ID)*chunk+off+shift)
				}
				r.Barrier()
				if r.ID == 0 {
					readEnd = r.P.Now()
				}
			}).Wait(p)
		})
		if err != nil {
			return 0, 0, err
		}
		// Charge the flush (dirty SSD data) to the write phase.
		return sim.Duration(writeEnd) + res.FlushTime, readEnd.Sub(writeEnd), nil
	}

	rows := []struct {
		name    string
		mode    cluster.Mode
		viaPLFS bool
	}{
		{"stock", cluster.Stock, false},
		{"PLFS (mini)", cluster.Stock, true},
		{"iBridge", cluster.IBridge, false},
	}
	cells, err := runner.Map(len(rows), func(i int) ([]string, error) {
		w, rd, err := run(rows[i].mode, rows[i].viaPLFS)
		if err != nil {
			return nil, err
		}
		return []string{rows[i].name,
			fmt.Sprintf("%.1f", w.Seconds()),
			fmt.Sprintf("%.1f", rd.Seconds()),
			fmt.Sprintf("%.1f", (w + rd).Seconds())}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, cells...)
	t.Note("PLFS rearranges unaligned writes into per-rank log appends; its restart reads resolve through the index into the logs (the paper's criticism: \"spatial locality is largely lost in the log file system\")")
	t.Note("measured shape: iBridge gives the best total — it fixes the write side without changing the logical layout, so the restart read stays as fast as an aligned read; PLFS improves the restart over stock here because at these scales the rank logs are small and dense, muting the locality loss")
	return t, nil
}
