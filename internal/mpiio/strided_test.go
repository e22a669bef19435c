package mpiio

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// opLog is one entry of a run's request log: the instant, the number of
// events the engine had run, and who did what. Two runs whose logs are
// equal made every step in the same event, hence at the same (at, seq).
type opLog struct {
	at     sim.Time
	events int64
	who    int // rank (issue) or origin (store)
	op     device.Op
	off    int64 // file offset (issue) or LBN (store)
}

// logStore records each sub-request a data server's store begins.
type logStore struct {
	e     *sim.Engine
	inner pfs.Store
	log   *[]opLog
}

func (s *logStore) Start(r *pfs.IORequest, done func()) {
	*s.log = append(*s.log, opLog{s.e.Now(), s.e.Stats().Events, int(r.Origin), r.Op, r.LBN})
	s.inner.Start(r, done)
}

func (s *logStore) Flush(done func()) { s.inner.Flush(done) }

// stridedRun is what one run of a strided loop left behind.
type stridedRun struct {
	issued, served []opLog
	measured       []sim.Time
	stats          pfs.Stats
	engine         sim.Stats
}

// runStrided runs the loop s on a fresh 4-server world of n ranks with
// iBridge flagging, through start: World.Strided or referenceStrided.
func runStrided(t *testing.T, n int, s Strided, start func(*World, Strided) *sim.Counter) stridedRun {
	t.Helper()
	var out stridedRun
	e := sim.New()
	rng := sim.NewRNG(1)
	stores := make([]pfs.Store, 4)
	for i := range stores {
		d := hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = &logStore{e: e, inner: pfs.NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil)), log: &out.served}
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{Layout: stripe.Layout{Unit: 64 * 1024, Servers: 4}}, stores)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("data", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	op := device.Read
	if s.Write {
		op = device.Write
	}
	offset := s.Offset
	s.Offset = func(rank int, k int64) int64 {
		off := offset(rank, k)
		out.issued = append(out.issued, opLog{e.Now(), e.Stats().Events, rank, op, off})
		return off
	}
	s.Measured = func() { out.measured = append(out.measured, e.Now()) }
	w := NewWorld(e, pfs.NewIBridgeClient(fs, 40*1024, 20*1024), f, n)
	e.Go("driver", func(p *sim.Proc) {
		start(w, s).Wait(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.stats, out.engine = *fs.Stats(), e.Stats()
	return out
}

// referenceStrided runs s with a process per rank: the rank body
// mpi-io-test and ior-mpi-io ran before their ranks became callback
// chains, the reference World.Strided must match step for step.
func referenceStrided(w *World, s Strided) *sim.Counter {
	passes := 1
	if s.WarmIdle > 0 {
		passes = 2
	}
	rngs := make([]*sim.RNG, w.Size())
	if s.Think != nil {
		for i := range rngs {
			rngs[i] = s.Think.Fork()
		}
	}
	return w.Spawn("reference", func(r *Rank) {
		for pass := 0; pass < passes; pass++ {
			if pass == passes-1 {
				if s.WarmIdle > 0 {
					r.Barrier()
					r.Compute(s.WarmIdle)
					r.Barrier()
				}
				if r.ID == 0 && s.Measured != nil {
					s.Measured()
				}
			}
			for k := int64(0); k < s.Iters; k++ {
				if s.Jitter > 0 {
					r.Compute(rngs[r.ID].Duration(0, s.Jitter))
				}
				off := s.Offset(r.ID, k)
				if s.Write {
					r.WriteAt(off, s.Length)
				} else {
					r.ReadAt(off, s.Length)
				}
				if s.Barrier {
					r.Barrier()
				}
			}
		}
	})
}

// TestStridedMatchesProcessRanks holds the callback runner to the rank
// processes it replaced: every request is issued, and every sub-request
// begun at its store, in the same event, and the client statistics and
// the engine's event count agree. The cases cover think time, the warm
// pass and a barrier after every request; the last is Fig. 3's shape:
// no think time, a barrier after each request, and a request of k units
// plus 1 KB at the start of a rank's own stripe, spanning servers.
func TestStridedMatchesProcessRanks(t *testing.T) {
	const ranks, size = 6, 65 * 1024
	const stripe = 4 * 64 * 1024 // runStrided's 4 servers' units
	strided := func(rank int, k int64) int64 { return (k*ranks + int64(rank)) * size }
	chunked := func(rank int, k int64) int64 { return int64(rank)*(4<<20) + k*size }
	stripes := func(rank int, k int64) int64 { return (k*ranks + int64(rank)) * stripe }
	cases := []struct {
		name string
		s    Strided
	}{
		{"write", Strided{Iters: 12, Write: true, Offset: strided}},
		{"read/jitter", Strided{Iters: 12, Offset: strided, Jitter: 2 * sim.Millisecond}},
		{"read/warm", Strided{Iters: 8, Offset: strided, Jitter: sim.Millisecond, WarmIdle: 50 * sim.Millisecond}},
		{"write/barrier", Strided{Iters: 10, Write: true, Offset: strided, Barrier: true}},
		{"read/barrier/jitter", Strided{Iters: 10, Offset: chunked, Barrier: true, Jitter: 500 * sim.Microsecond}},
		{"write/warm/barrier/jitter", Strided{Iters: 6, Write: true, Offset: chunked, Barrier: true,
			Jitter: sim.Millisecond, WarmIdle: 20 * sim.Millisecond}},
		{"read/barrier/fig3", Strided{Iters: 8, Length: 2*64*1024 + 1024, Offset: stripes, Barrier: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.s
			if s.Length == 0 {
				s.Length = size
			}
			run := func(start func(*World, Strided) *sim.Counter) stridedRun {
				s := s
				if s.Jitter > 0 {
					s.Think = sim.NewRNG(7)
				}
				return runStrided(t, ranks, s, start)
			}
			want, got := run(referenceStrided), run((*World).Strided)
			passes := int64(1)
			if s.WarmIdle > 0 {
				passes = 2
			}
			if want.stats.Requests != ranks*s.Iters*passes || len(want.measured) != 1 {
				t.Fatalf("reference made %d requests, measured %d times", want.stats.Requests, len(want.measured))
			}
			diffLogs(t, "issued", want.issued, got.issued)
			diffLogs(t, "served", want.served, got.served)
			if !slices.Equal(want.measured, got.measured) {
				t.Errorf("measured pass began at %v, reference %v", got.measured, want.measured)
			}
			if got.stats != want.stats {
				t.Errorf("client stats %+v, reference %+v", got.stats, want.stats)
			}
			if got.engine.Events != want.engine.Events {
				t.Errorf("%d events, reference %d", got.engine.Events, want.engine.Events)
			}
			if got.engine.ProcsStarted != 1 || got.engine.Resumes != 2 {
				t.Errorf("%d processes started, %d resumes; want only the driver's 1 and 2", got.engine.ProcsStarted, got.engine.Resumes)
			}
		})
	}
}

func diffLogs(t *testing.T, what string, want, got []opLog) {
	t.Helper()
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			t.Errorf("%s entry %d of %d: %+v, reference %+v", what, i, len(want), got[i], want[i])
			return
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d %s entries, reference %d", len(got), what, len(want))
	}
}

// TestStridedStepAllocations checks that a rank in steady state
// allocates nothing per step — think time, request, completion — by
// counting the mallocs of a window of virtual time in the middle of a
// run against the requests completed in it.
func TestStridedStepAllocations(t *testing.T) {
	const ranks, size = 4, 65 * 1024
	var mallocs uint64
	var requests int64
	window := func(e *sim.Engine, fs *pfs.FileSystem) {
		e.Go("probe", func(p *sim.Proc) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var ms runtime.MemStats
			p.Sleep(100 * sim.Millisecond)
			runtime.ReadMemStats(&ms)
			mallocs, requests = ms.Mallocs, fs.Stats().Requests
			p.Sleep(300 * sim.Millisecond)
			runtime.ReadMemStats(&ms)
			mallocs, requests = ms.Mallocs-mallocs, fs.Stats().Requests-requests
		})
	}
	e := sim.New()
	w, fs := testWorld(t, e, ranks)
	window(e, fs)
	e.Go("driver", func(p *sim.Proc) {
		w.Strided(Strided{
			Iters: 200, Length: size, Write: true,
			Offset: func(rank int, k int64) int64 { return (k*ranks + int64(rank)) * size },
			Jitter: 2 * sim.Millisecond, Think: sim.NewRNG(5),
		}).Wait(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if requests < 50 {
		t.Fatalf("only %d requests completed in the window", requests)
	}
	perStep := mallocs / uint64(requests)
	t.Logf("%d mallocs over %d steady-state steps", mallocs, requests)
	if perStep > 0 {
		t.Errorf("%d allocs per steady-state step, want 0", perStep)
	}
}

func ExampleWorld_Strided() {
	e := sim.New()
	rng := sim.NewRNG(1)
	stores := make([]pfs.Store, 2)
	for i := range stores {
		stores[i] = pfs.NewQueueStore(iosched.New(e, hdd.New(e, hdd.DefaultSpec(), rng.Fork()), iosched.DiskDefaults(), nil))
	}
	fs, _ := pfs.NewFileSystem(e, pfs.Config{Layout: stripe.Layout{Unit: 64 * 1024, Servers: 2}}, stores)
	f, _ := fs.Create("data", 8<<20)
	w := NewWorld(e, pfs.NewClient(fs), f, 4)
	e.Go("driver", func(p *sim.Proc) {
		w.Strided(Strided{
			Iters: 8, Length: 64 * 1024, Write: true,
			Offset: func(rank int, k int64) int64 { return (k*4 + int64(rank)) * 64 * 1024 },
		}).Wait(p)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	fmt.Println(fs.Stats().Requests, "requests;", e.Stats().ProcsStarted, "process started")
	// Output: 32 requests; 1 process started
}
