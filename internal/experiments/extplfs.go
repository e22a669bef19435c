package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/mpiio"
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
		w, rd, err := extPLFSRun(s, baseConfig(s, rows[i].mode), rows[i].viaPLFS)
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

// The checkpoint of ext-plfs: 64 ranks write 64 KB requests displaced by
// +10 KB.
const (
	ckptProcs = 64
	ckptReq   = 64 * kb
	ckptShift = 10 * kb
)

// extPLFSRun writes the checkpoint (ckptPrograms) on a cluster of cfg,
// to a file of the cluster's mode or, viaPLFS, through the log mount on
// a stock cluster, and returns the write time (the flush of dirty SSD
// data included) and the restart read's time.
func extPLFSRun(s Scale, cfg cluster.Config, viaPLFS bool) (write, read sim.Duration, err error) {
	progs := ckptPrograms(s.MPIIOBytes)
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	var marks []sim.Time
	res, err := c.Run(func(cl *cluster.Cluster, done func()) {
		ckptWorld(cl, s.MPIIOBytes, viaPLFS).Run(progs, workload.RankZeroMarks(cl.Engine, &marks), done)
	})
	if err != nil {
		return 0, 0, err
	}
	writeEnd, readEnd := marks[0], marks[1]
	return sim.Duration(writeEnd) + res.FlushTime, readEnd.Sub(writeEnd), nil
}

// ckptPrograms returns the checkpoint's rank programs over fileBytes:
// the mpi-io-test pattern displaced by ckptShift, in a shuffled
// iteration order, then a mark between barriers and every rank's
// sequential read-back of its share, then a barrier and a mark. Each
// request follows a think time drawn from the rank's own stream.
func ckptPrograms(fileBytes int64) []mpiio.Program {
	iters := fileBytes / (ckptProcs * ckptReq)
	perm := sim.NewRNG(99).Perm(int(iters))
	chunk := fileBytes / ckptProcs
	rng := sim.NewRNG(11)
	progs := make([]mpiio.Program, ckptProcs)
	for r := range progs {
		think := rng.Fork()
		step := func(op device.Op, off int64) {
			progs[r] = append(progs[r], mpiio.Step{Kind: mpiio.Compute, D: think.Duration(0, workload.DefaultJitter)},
				mpiio.IO(op, off, ckptReq))
		}
		for _, ki := range perm {
			step(device.Write, int64(ki)*ckptProcs*ckptReq+int64(r)*ckptReq+ckptShift)
		}
		progs[r] = append(progs[r], mpiio.Step{Kind: mpiio.Barrier}, mpiio.Step{Kind: mpiio.Mark}, mpiio.Step{Kind: mpiio.Barrier})
		for off := int64(0); off+ckptReq <= chunk; off += ckptReq {
			step(device.Read, int64(r)*chunk+off+ckptShift)
		}
		progs[r] = append(progs[r], mpiio.Step{Kind: mpiio.Barrier}, mpiio.Step{Kind: mpiio.Mark})
	}
	return progs
}

// ckptWorld creates the checkpoint's logical file of fileBytes on cl —
// a file of the cluster's mode, or a PLFS container — and returns the
// world of ckptProcs ranks whose requests go to it.
func ckptWorld(cl *cluster.Cluster, fileBytes int64, viaPLFS bool) *mpiio.World {
	size := fileBytes + ckptShift + ckptReq
	if !viaPLFS {
		f, err := cl.FS.Create("ckpt", size)
		if err != nil {
			panic(err)
		}
		return mpiio.NewWorld(cl.Engine, cl.Client(), f, ckptProcs)
	}
	m, err := plfs.Create(cl.FS, "ckpt", size, ckptProcs)
	if err != nil {
		panic(err)
	}
	return mpiio.NewWorldOn(cl.Engine, ckptProcs, func(rank int, op device.Op, off, n int64, done func()) {
		var err error
		if op == device.Write {
			err = m.WriteAt(rank, off, n, done)
		} else {
			_, err = m.ReadAt(off, n, done)
		}
		if err != nil {
			panic(err)
		}
	})
}
