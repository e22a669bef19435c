package mpiio

import (
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

// programRun is what one run of rank programs left behind: each rank's
// marks (its last is its completion instant), the disks' statistics
// one per server, the client's, and the engine's event count less the
// reference ranks' extra resumes.
type programRun struct {
	marks  [][]sim.Time
	disks  []device.Stats
	stats  pfs.Stats
	events int64
}

// runProgramsOn runs progs, each with a completion mark appended, on a
// fresh 4-server world of iBridge-flagged clients through start:
// World.Run or referenceRun.
func runProgramsOn(t testing.TB, progs []Program, start func(*World, []Program, func(int), func()) *int64) programRun {
	e := sim.New()
	rng := sim.NewRNG(3)
	disks := make([]*hdd.Disk, 4)
	stores := make([]pfs.Store, len(disks))
	for i := range stores {
		disks[i] = hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = pfs.NewQueueStore(iosched.New(e, disks[i], iosched.DiskDefaults(), nil))
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{Layout: stripe.Layout{Unit: 64 * 1024, Servers: len(stores)}}, stores)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("data", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(e, pfs.NewIBridgeClient(fs, 40*1024, 20*1024), f, len(progs))
	marked := make([]Program, len(progs))
	for i, p := range progs {
		marked[i] = append(slices.Clone(p), Step{Kind: Mark})
	}
	var out programRun
	var hops *int64
	var mark func(int)
	mark, out.marks = recordMarks(e, len(progs))
	runWorld(t, e, func(done func()) { hops = start(w, marked, mark, done) })
	for _, d := range disks {
		out.disks = append(out.disks, *d.Stats())
	}
	out.stats, out.events = *fs.Stats(), e.Stats().Events
	if hops != nil {
		out.events -= *hops
	}
	return out
}

func runnerRun(w *World, progs []Program, mark func(int), done func()) *int64 {
	w.Run(progs, mark, done)
	return nil
}

// checkProgramsMatch holds World.Run to the process reference on progs:
// the same marks (so per-rank completion instants), disk and client
// statistics, and events but for the reference's resumes.
func checkProgramsMatch(t testing.TB, progs []Program) {
	t.Helper()
	want := runProgramsOn(t, progs, referenceRun)
	got := runProgramsOn(t, progs, runnerRun)
	for i := range want.marks {
		if !slices.Equal(got.marks[i], want.marks[i]) {
			t.Fatalf("rank %d marks %v, reference %v", i, got.marks[i], want.marks[i])
		}
	}
	if !slices.Equal(got.disks, want.disks) {
		t.Fatalf("disk stats %+v, reference %+v", got.disks, want.disks)
	}
	if got.stats != want.stats {
		t.Fatalf("client stats %+v, reference %+v", got.stats, want.stats)
	}
	if got.events != want.events {
		t.Fatalf("%d events, reference %d less its resumes from requests", got.events, want.events)
	}
}

// fuzzPrograms decodes data into rank programs: 1–4 ranks, 1–4
// segments each ended by a barrier of every rank, and in each segment
// up to 3 steps per rank of compute (zero included) and read and write
// vectors of 1–3 requests, some of zero length, some overlapping.
func fuzzPrograms(data []byte) []Program {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	progs := make([]Program, 1+next()%4)
	for range 1 + next()%4 {
		for i := range progs {
			for range next() % 4 {
				switch k := next() % 3; k {
				case 0:
					progs[i] = append(progs[i], Step{Kind: Compute, D: sim.Duration(next()%8) * 250 * sim.Microsecond})
				default:
					kind := Read
					if k == 2 {
						kind = Write
					}
					progs[i] = append(progs[i], Step{Kind: kind, Off: next() * 37 * 1024, Len: (next() % 5) * 20 * 1024,
						Stride: (next() % 4) * 33 * 1024, Count: 1 + next()%3})
				}
			}
			progs[i] = append(progs[i], Step{Kind: Barrier})
		}
	}
	return progs
}

// FuzzRankProgram holds the program runner to the process ranks it
// replaced on random small programs: per-rank completion instants, disk
// statistics and events agree.
func FuzzRankProgram(f *testing.F) {
	f.Add([]byte{3, 2, 3, 0, 4, 1, 8, 2, 1, 3, 2, 5, 1, 0, 2, 1, 9, 3, 3, 2, 2})
	f.Add([]byte{0, 3, 2, 1, 2, 3, 1, 2, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{1, 0, 3, 1, 1, 0, 0, 2, 3, 2, 1, 1, 0, 3, 3, 2, 1, 1})
	f.Add([]byte{3, 3, 3, 2, 40, 2, 3, 2, 2, 41, 1, 2, 0, 2, 200, 4, 3, 2, 3, 0, 7, 1, 255, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkProgramsMatch(t, fuzzPrograms(data))
	})
}

// TestProgramStepAllocations checks that a rank of a program allocates
// nothing per step in steady state — compute, barrier, request, mark —
// by counting the mallocs of a window of virtual time in the middle of
// a run against the requests completed in it.
func TestProgramStepAllocations(t *testing.T) {
	const ranks = 4
	progs := make([]Program, ranks)
	for i := range progs {
		for k := int64(0); k < 100; k++ {
			progs[i] = append(progs[i], Step{Kind: Compute, D: sim.Millisecond}, Step{Kind: Barrier}, Step{Kind: Mark},
				Step{Kind: Write, Off: (k*ranks + int64(i)) * 4 * 4096, Len: 4096, Stride: 4096, Count: 4})
		}
	}
	e := sim.New()
	w, fs := testWorld(t, e, ranks)
	var mallocs uint64
	var requests int64
	e.Go("probe", func(p *sim.Proc) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		p.Sleep(100 * sim.Millisecond)
		mallocs, requests = testingMallocs(), fs.Stats().Requests
		p.Sleep(300 * sim.Millisecond)
		mallocs, requests = testingMallocs()-mallocs, fs.Stats().Requests-requests
	})
	runWorld(t, e, func(done func()) { w.Run(progs, func(int) {}, done) })
	if requests < 50 {
		t.Fatalf("only %d requests completed in the window", requests)
	}
	t.Logf("%d mallocs over %d steady-state requests", mallocs, requests)
	if mallocs/uint64(requests) > 0 {
		t.Errorf("%d allocs per steady-state request, want 0", mallocs/uint64(requests))
	}
}

func testingMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
