package mpiio

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

func testWorld(t *testing.T, e *sim.Engine, ranks int) (*World, *pfs.FileSystem) {
	t.Helper()
	rng := sim.NewRNG(1)
	stores := make([]pfs.Store, 4)
	for i := range stores {
		d := hdd.New(e, hdd.DefaultSpec(), rng.Fork())
		stores[i] = pfs.NewQueueStore(iosched.New(e, d, iosched.DiskDefaults(), nil))
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{
		Layout: stripe.Layout{Unit: 64 * 1024, Servers: 4},
	}, stores)
	if err != nil {
		t.Fatalf("NewFileSystem: %v", err)
	}
	f, err := fs.Create("data", 64<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return NewWorld(e, pfs.NewClient(fs), f, ranks), fs
}

// procRank is one MPI rank run as a process, the way ranks were written
// before they became programs: the reference the runners are held to.
// Its requests go through the world's Issuer by Proc.Call, so a rank
// resumes one event after the completion event the runners go on from,
// at the same instant; hops counts those extra events.
type procRank struct {
	ID   int
	P    *sim.Proc
	w    *World
	hops *int64
}

// spawn starts fn as every rank's body, each a process, runs done from
// an event of its own once all have returned, as World.Run does, and
// returns the count of the ranks' resumes from a request so far.
func spawn(w *World, fn func(r *procRank), done func()) *int64 {
	left := w.n
	hops := new(int64)
	for i := 0; i < w.n; i++ {
		w.e.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			fn(&procRank{ID: i, P: p, w: w, hops: hops})
			if left--; left == 0 {
				w.e.After(0, done)
			}
		})
	}
	return hops
}

func (r *procRank) Barrier()               { r.w.barrier.Wait(r.P) }
func (r *procRank) Compute(d sim.Duration) { r.P.Sleep(d) }
func (r *procRank) ReadAt(off, n int64)    { r.io(device.Read, off, n) }
func (r *procRank) WriteAt(off, n int64)   { r.io(device.Write, off, n) }

func (r *procRank) io(op device.Op, off, n int64) {
	r.P.Call(func(done func()) {
		issued := false
		r.w.issue(r.ID, op, off, n, func() {
			if issued {
				*r.hops++ // Call wakes the process: one event more
			}
			done()
		})
		issued = true
	})
}

// referenceRun runs progs with a process per rank, step by step as the
// process API spells them, calling mark and done as World.Run does, and
// returns the count of the ranks' resumes from a request.
func referenceRun(w *World, progs []Program, mark func(rank int), done func()) *int64 {
	return spawn(w, func(r *procRank) {
		for _, s := range progs[r.ID] {
			switch s.Kind {
			case Compute:
				r.Compute(s.D)
			case Barrier:
				r.Barrier()
			case Mark:
				mark(r.ID)
			default:
				for _, pc := range s.Pieces(nil) {
					if s.Kind == Write {
						r.WriteAt(pc.Off, pc.Len)
					} else {
						r.ReadAt(pc.Off, pc.Len)
					}
				}
			}
		}
	}, done)
}

// recordMarks returns a mark callback that appends the instant of each
// of rank i's marks to marks[i].
func recordMarks(e *sim.Engine, n int) (func(rank int), [][]sim.Time) {
	marks := make([][]sim.Time, n)
	return func(rank int) { marks[rank] = append(marks[rank], e.Now()) }, marks
}

// runWorld starts the ranks with start, runs the engine and halts it
// once the ranks are done, and fails t if they never are.
func runWorld(t testing.TB, e *sim.Engine, start func(done func())) {
	t.Helper()
	finished := false
	start(func() {
		finished = true
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !finished {
		t.Fatal("the ranks never finished")
	}
}

func TestRunRunsAllRanks(t *testing.T) {
	e := sim.New()
	w, _ := testWorld(t, e, 8)
	progs := make([]Program, 8)
	for i := range progs {
		progs[i] = Program{{Kind: Compute, D: sim.Duration(i) * sim.Millisecond}, {Kind: Mark}}
	}
	mark, marks := recordMarks(e, len(progs))
	runWorld(t, e, func(done func()) { w.Run(progs, mark, done) })
	for i, m := range marks {
		if len(m) != 1 || m[0] != sim.Time(sim.Duration(i)*sim.Millisecond) {
			t.Fatalf("rank %d marked %v, want [%v]", i, m, sim.Duration(i)*sim.Millisecond)
		}
	}
}

func TestRanksHaveDistinctOrigins(t *testing.T) {
	e := sim.New()
	var log []opLog
	w, _ := logWorld(t, e, 4, &log, func() int64 { return 0 })
	progs := make([]Program, 4)
	for i := range progs {
		progs[i] = Program{IO(device.Write, int64(i)*64*1024, 64*1024)}
	}
	runWorld(t, e, func(done func()) { w.Run(progs, nil, done) })
	origins := map[int]bool{}
	for _, l := range log {
		origins[l.who] = true
	}
	if len(origins) != 4 {
		t.Fatalf("%d distinct origins, want 4", len(origins))
	}
	if origins[0] {
		t.Fatal("rank used the zero origin reserved for server-internal traffic")
	}
}

func TestBarrierAcrossRanks(t *testing.T) {
	e := sim.New()
	w, _ := testWorld(t, e, 4)
	progs := make([]Program, 4)
	for i := range progs {
		progs[i] = Program{{Kind: Compute, D: sim.Duration(i) * sim.Millisecond}, {Kind: Barrier}, {Kind: Mark}}
	}
	mark, marks := recordMarks(e, len(progs))
	runWorld(t, e, func(done func()) { w.Run(progs, mark, done) })
	for _, m := range marks {
		if m[0] != sim.Time(3*sim.Millisecond) {
			t.Fatalf("rank passed barrier at %v, want 3ms", m[0])
		}
	}
}

func TestReadWriteThroughRanks(t *testing.T) {
	e := sim.New()
	w, fs := testWorld(t, e, 2)
	progs := make([]Program, 2)
	for i := range progs {
		off := int64(i) * 64 * 1024
		progs[i] = Program{{Kind: Mark}, IO(device.Write, off, 64*1024), {Kind: Mark}, IO(device.Read, off, 64*1024), {Kind: Mark}}
	}
	mark, marks := recordMarks(e, len(progs))
	runWorld(t, e, func(done func()) { w.Run(progs, mark, done) })
	for i, m := range marks {
		if !(m[0] < m[1] && m[1] < m[2]) {
			t.Errorf("rank %d: write and read took no time: marks %v", i, m)
		}
	}
	st := fs.Stats()
	if st.Requests != 4 {
		t.Fatalf("requests = %d, want 4", st.Requests)
	}
	if st.Bytes[device.Read] != 2*64*1024 || st.Bytes[device.Write] != 2*64*1024 {
		t.Fatalf("bytes = %v", st.Bytes)
	}
}

// TestRunInlineStepsDoNotNest: steps that complete inline — zero-length
// requests, a one-rank barrier, marks — run on in the rank's loop, not
// in nested calls, so a long run of them neither grows the stack nor
// costs an event.
func TestRunInlineStepsDoNotNest(t *testing.T) {
	e := sim.New()
	w, fs := testWorld(t, e, 1)
	var prog Program
	for range 100000 {
		prog = append(prog, IO(device.Read, 0, 0), Step{Kind: Barrier}, Step{Kind: Mark})
	}
	prog = append(prog, Step{Kind: Write, Off: 0, Len: 4096, Stride: 4096, Count: 3})
	mark, marks := recordMarks(e, 1)
	runWorld(t, e, func(done func()) { w.Run([]Program{prog}, mark, done) })
	if len(marks[0]) != 100000 || fs.Stats().Requests != 3 {
		t.Fatalf("%d marks, %d requests; want 100000 and 3", len(marks[0]), fs.Stats().Requests)
	}
	// The rank's start, three requests' network legs, disk service and
	// completions, and the world's done.
	if ev := e.Stats().Events; ev > 40 {
		t.Errorf("%d events for 3 requests", ev)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	e := sim.New()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world accepted")
		}
	}()
	NewWorld(e, nil, nil, 0)
}
