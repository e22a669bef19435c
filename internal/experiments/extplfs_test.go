package experiments

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/plfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ckptReference is ext-plfs's rank body as it ran before its ranks
// became programs: a process per rank, each request by Proc.Call on the
// rank's origin-tagged client or on the PLFS mount, and each rank's
// completion instant into finished. It is done from an event of its own
// after the last rank returns, as a World is.
func ckptReference(fileBytes int64, viaPLFS bool, finished []sim.Time) cluster.Workload {
	return func(cl *cluster.Cluster, allDone func()) {
		const procs, req, shift = ckptProcs, ckptReq, ckptShift
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
		client := cl.Client()
		rng := sim.NewRNG(11)
		rngs := make([]*sim.RNG, procs)
		for i := range rngs {
			rngs[i] = rng.Fork()
		}
		iters := fileBytes / (procs * req)
		perm := sim.NewRNG(99).Perm(int(iters))
		barrier := sim.NewBarrier(cl.Engine, procs)
		left := procs
		for id := 0; id < procs; id++ {
			rc := client.WithOrigin(int32(id + 1))
			call := func(rp *sim.Proc, op device.Op, off int64) {
				rp.Call(func(done func()) {
					switch {
					case m == nil:
						rc.Start(f, op, off, req, done)
					case op == device.Write:
						err = m.WriteAt(id, off, req, done)
					default:
						_, err = m.ReadAt(off, req, done)
					}
					if err != nil {
						panic(err)
					}
				})
			}
			cl.Engine.Go("ckpt", func(rp *sim.Proc) {
				for _, ki := range perm {
					rp.Sleep(rngs[id].Duration(0, workload.DefaultJitter))
					call(rp, device.Write, int64(ki)*procs*req+int64(id)*req+shift)
				}
				barrier.Wait(rp)
				barrier.Wait(rp)
				chunk := fileBytes / procs
				for off := int64(0); off+req <= chunk; off += req {
					rp.Sleep(rngs[id].Duration(0, workload.DefaultJitter))
					call(rp, device.Read, int64(id)*chunk+off+shift)
				}
				barrier.Wait(rp)
				finished[id] = rp.Now()
				if left--; left == 0 {
					cl.Engine.After(0, allDone)
				}
			})
		}
	}
}

// TestCkptProgramMatchesProcessRanks holds ext-plfs's rank programs and
// issuers to the process body they replaced, on each of its systems at
// smoke scale: every rank finishes at the same instant, and the client's
// and the disks' statistics agree.
func TestCkptProgramMatchesProcessRanks(t *testing.T) {
	fileBytes := Smoke.MPIIOBytes
	for _, tc := range []struct {
		name    string
		mode    cluster.Mode
		viaPLFS bool
	}{{"stock", cluster.Stock, false}, {"plfs", cluster.Stock, true}, {"ibridge", cluster.IBridge, false}} {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				finished []sim.Time
				res      cluster.Result
				fs       pfs.Stats
				disks    device.Stats
			}
			exec := func(w func([]sim.Time) cluster.Workload) run {
				c, err := cluster.New(baseConfig(Smoke, tc.mode))
				if err != nil {
					t.Fatal(err)
				}
				r := run{finished: make([]sim.Time, ckptProcs)}
				if r.res, err = c.Run(w(r.finished)); err != nil {
					t.Fatal(err)
				}
				r.fs, r.disks = *c.FS.Stats(), c.DiskStats()
				return r
			}
			want := exec(func(finished []sim.Time) cluster.Workload {
				return ckptReference(fileBytes, tc.viaPLFS, finished)
			})
			got := exec(func(finished []sim.Time) cluster.Workload {
				return func(cl *cluster.Cluster, done func()) {
					progs := ckptPrograms(fileBytes)
					for i := range progs {
						progs[i] = append(progs[i], mpiio.Step{Kind: mpiio.Mark})
					}
					ckptWorld(cl, fileBytes, tc.viaPLFS).Run(progs, func(rank int) { finished[rank] = cl.Engine.Now() }, done)
				}
			})
			if !slices.Equal(got.finished, want.finished) {
				t.Errorf("ranks finished at %v, reference %v", got.finished, want.finished)
			}
			if got.fs != want.fs || got.disks != want.disks || got.res.FlushTime != want.res.FlushTime {
				t.Errorf("client %+v, disks %+v, flush %v; reference %+v, %+v, %v",
					got.fs, got.disks, got.res.FlushTime, want.fs, want.disks, want.res.FlushTime)
			}
		})
	}
}
