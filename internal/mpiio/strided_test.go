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
// events the engine had run (less, for the reference, its ranks' extra
// resumes so far), and who did what. Two runs whose logs are equal made
// every step in the same event, hence at the same (at, seq).
type opLog struct {
	at     sim.Time
	events int64
	who    int // rank (issue) or origin (store)
	op     device.Op
	off    int64 // file offset (issue) or LBN (store)
}

// logStore records each sub-request a data server's store begins.
type logStore struct {
	e      *sim.Engine
	events func() int64
	inner  pfs.Store
	log    *[]opLog
}

func (s *logStore) Start(r *pfs.IORequest, done func()) {
	*s.log = append(*s.log, opLog{s.e.Now(), s.events(), int(r.Origin), r.Op, r.LBN})
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

// logWorld returns a fresh 4-server world of n ranks on a 64 MiB file
// with iBridge flagging, whose stores log each sub-request they begin
// into served, with the event count events reads.
func logWorld(t *testing.T, e *sim.Engine, n int, served *[]opLog, events func() int64) (*World, *pfs.FileSystem) {
	t.Helper()
	rng := sim.NewRNG(1)
	stores := make([]pfs.Store, 4)
	for i := range stores {
		d := hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = &logStore{e: e, events: events, inner: pfs.NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil)), log: served}
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{Layout: stripe.Layout{Unit: 64 * 1024, Servers: 4}}, stores)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("data", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(e, pfs.NewIBridgeClient(fs, 40*1024, 20*1024), f, n), fs
}

// runStrided runs the loop s on a logWorld of n ranks through start:
// World.Strided or referenceStrided, which returns the count of extra
// events its ranks cost (nil for none).
func runStrided(t *testing.T, n int, s Strided, start func(*World, Strided, func()) *int64) stridedRun {
	t.Helper()
	var out stridedRun
	e := sim.New()
	var hops *int64
	events := func() int64 {
		if hops == nil {
			return e.Stats().Events
		}
		return e.Stats().Events - *hops
	}
	w, fs := logWorld(t, e, n, &out.served, events)
	issue := w.issue
	w.issue = func(rank int, op device.Op, off, n int64, done func()) {
		out.issued = append(out.issued, opLog{e.Now(), events(), rank, op, off})
		issue(rank, op, off, n, done)
	}
	s.Measured = func() { out.measured = append(out.measured, e.Now()) }
	runWorld(t, e, func(done func()) { hops = start(w, s, done) })
	out.stats, out.engine = *fs.Stats(), e.Stats()
	out.engine.Events = events()
	return out
}

// referenceStrided runs s with a process per rank: the rank body
// mpi-io-test and ior-mpi-io ran before their ranks became callback
// chains, the reference World.Strided must match step for step.
func referenceStrided(w *World, s Strided, done func()) *int64 {
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
	return spawn(w, func(r *procRank) {
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
	}, done)
}

// TestStridedMatchesProcessRanks holds the callback runner to the rank
// processes it replaced: every request is issued, and every sub-request
// begun at its store, in the same event, and the client statistics and
// the engine's event count (less the reference's one extra resume per
// request) agree. The cases cover think time, the warm
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
			run := func(start func(*World, Strided, func()) *int64) stridedRun {
				s := s
				if s.Jitter > 0 {
					s.Think = sim.NewRNG(7)
				}
				return runStrided(t, ranks, s, start)
			}
			want, got := run(referenceStrided), run(func(w *World, s Strided, done func()) *int64 {
				w.Strided(s, done)
				return nil
			})
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
			if got.engine.ProcsStarted != 0 || got.engine.Resumes != 0 {
				t.Errorf("%d processes started, %d resumes; want none", got.engine.ProcsStarted, got.engine.Resumes)
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
	runWorld(t, e, func(done func()) {
		w.Strided(Strided{
			Iters: 200, Length: size, Write: true,
			Offset: func(rank int, k int64) int64 { return (k*ranks + int64(rank)) * size },
			Jitter: 2 * sim.Millisecond, Think: sim.NewRNG(5),
		}, done)
	})
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
	w.Strided(Strided{
		Iters: 8, Length: 64 * 1024, Write: true,
		Offset: func(rank int, k int64) int64 { return (k*4 + int64(rank)) * 64 * 1024 },
	}, e.Halt)
	if err := e.Run(); err != nil {
		panic(err)
	}
	fmt.Println(fs.Stats().Requests, "requests;", e.Stats().ProcsStarted, "processes started")
	// Output: 32 requests; 0 processes started
}
