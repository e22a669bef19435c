package logstore

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// kill models SIGKILL between two steps of a cleaning cycle: the store
// latches crashed, so Close releases handles without syncing or
// checkpointing, and whatever the steps so far left on disk is what the
// next Open finds.
func kill(s *LogStore) {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.Close()
}

// cleanerFixture builds, under dir, a store whose sealed segments are
// each partly live: 1 KB segments, two objects written in 300-byte
// records, then every third record overwritten. It returns the open
// store and its shadow.
func cleanerFixture(t *testing.T, dir string) (*LogStore, shadow) {
	t.Helper()
	cfg := testConfig()
	cfg.CheckpointBytes = 1024
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	write := func(file uint64, off int64, n int, seed byte) {
		data := fill(n, seed)
		if err := s.WriteAt(file, off, data); err != nil {
			t.Fatal(err)
		}
		sh.write(file, off, data)
	}
	for i := range 16 {
		write(uint64(1+i%2), int64(i/2)*300, 300, byte(i))
	}
	for i := 0; i < 16; i += 3 {
		// Straddle two records, so some survivors are split extents.
		write(uint64(1+i%2), int64(i/2)*300+150, 300, byte(100+i))
	}
	return s, sh
}

// reopenVerify opens dir again — after flipping a byte of the
// checkpoint when corrupt is set, which forces the full-replay path —
// and byte-verifies it against sh.
func reopenVerify(t *testing.T, dir string, sh shadow, corrupt bool) *LogStore {
	t.Helper()
	if corrupt {
		p := filepath.Join(dir, ckptName)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x10
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.CheckpointBytes = 1024
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sh.verify(t, s)
	if st := s.Stats(); corrupt != (st.BadCheckpoints == 1) {
		t.Fatalf("BadCheckpoints = %d with corrupt=%v", st.BadCheckpoints, corrupt)
	}
	return s
}

// TestCleanerCrashMatrix kills a forced cleaning cycle at every one of
// its appends (torn at 0, half and the whole frame) and between each
// two of its steps — through retiring a victim onto the free list and
// the two steps of reusing its file as the next segment — reopens — trusting the checkpoint, and again with
// the checkpoint corrupted so every surviving segment is replayed — and
// requires the shadow's bytes each time. A copy changes no object, so
// the shadow is the same whatever the kill left of the cycle.
func TestCleanerCrashMatrix(t *testing.T) {
	// The cycle's append count, from an undisturbed run.
	s, sh := cleanerFixture(t, t.TempDir())
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	sh.verify(t, s)
	s.Close()
	if after.CleanedSegments < 3 || after.CopiedBytes == 0 {
		t.Fatalf("fixture cleans %d segments, copies %d bytes; want several segments with live copies", after.CleanedSegments, after.CopiedBytes)
	}
	if after.AppendedBytes-before.AppendedBytes != after.CopiedBytes || after.Appends != before.Appends {
		t.Fatalf("AppendedBytes grew %d for %d copied bytes, Appends %d -> %d: copies must count as bytes and not as user appends",
			after.AppendedBytes-before.AppendedBytes, after.CopiedBytes, before.Appends, after.Appends)
	}

	for _, corrupt := range []bool{false, true} {
		// idx runs over the cycle's appends; the first index the cycle
		// finishes under is one past its last.
		for idx, finished := 1, false; !finished; idx++ {
			for _, frac := range []float64{0, 0.5, 1.0} {
				t.Run(fmt.Sprintf("corrupt=%v/append=%d/frac=%v", corrupt, idx, frac), func(t *testing.T) {
					dir := t.TempDir()
					s, sh := cleanerFixture(t, dir)
					s.CrashAppend(int64(idx), frac)
					err := s.Compact()
					if finished = err == nil; finished && idx < 8 {
						t.Fatalf("the cycle finished in under %d appends; the fixture should leave it more", idx)
					}
					if err != nil && err != ErrCrashed {
						t.Fatalf("Compact = %v, want ErrCrashed on its append %d", err, idx)
					}
					s.Close()
					s = reopenVerify(t, dir, sh, corrupt)
					// The interrupted cycle is simply run again.
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
					sh.verify(t, s)
					s.Close()
					reopenVerify(t, dir, sh, false).Close()
				})
			}
		}
		// Between steps: run the cycle's steps in order and kill after
		// each prefix of them.
		steps := []struct {
			name string
			run  func(s *LogStore, victims []*segment, first uint64) error
		}{
			{"first-copy", func(s *LogStore, victims []*segment, _ uint64) error { return copyOut(s, victims[:1]) }},
			{"all-copies", func(s *LogStore, victims []*segment, _ uint64) error { return copyOut(s, victims[1:]) }},
			{"fsync", func(s *LogStore, _ []*segment, first uint64) error { return s.syncLog(first) }},
			{"checkpoint", func(s *LogStore, victims []*segment, _ uint64) error { return s.checkpoint(victims) }},
			{"first-retire", func(s *LogStore, victims []*segment, _ uint64) error {
				s.retire(victims[:1])
				if len(s.free) != 1 {
					return fmt.Errorf("free list holds %d files after retiring one victim, want 1", len(s.free))
				}
				return nil
			}},
			// What prepareSpare does with the free file, one step at a time.
			{"free-header", func(s *LogStore, _ []*segment, _ uint64) error { return stampSegment(s.free[0].f, s.nextSeq) }},
			{"free-rename", func(s *LogStore, _ []*segment, _ uint64) error {
				return os.Rename(freePath(s.dir, s.free[0].seq), segPath(s.dir, s.nextSeq))
			}},
		}
		const checkpointStep = 3 // from here on the victims are dropped from the installed table
		for last, step := range steps {
			t.Run(fmt.Sprintf("corrupt=%v/after-%s", corrupt, step.name), func(t *testing.T) {
				dir := t.TempDir()
				s, sh := cleanerFixture(t, dir)
				// Seal the active segment as Compact would.
				if err := s.prepareSpare(); err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				s.rollLocked()
				s.mu.Unlock()
				victims, first := s.pickVictims(true)
				for _, st := range steps[:last+1] {
					if err := st.run(s, victims, first); err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
				}
				kill(s)
				s = reopenVerify(t, dir, sh, corrupt)
				defer s.Close()
				seqs, err := listSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				// Under the checkpoint that dropped them, Open deletes the
				// victims the kill left linked, and every free file.
				for _, v := range victims {
					if last >= checkpointStep && !corrupt && containsSeq(seqs, v.seq) {
						t.Fatalf("victim seg-%d survived an Open under the checkpoint that dropped it (segments %v)", v.seq, seqs)
					}
				}
				if free, _ := filepath.Glob(filepath.Join(dir, freePrefix+"*")); len(free) != 0 {
					t.Fatalf("free files %v survived an Open", free)
				}
			})
		}
	}
}

// copyOut evacuates each victim.
func copyOut(s *LogStore, victims []*segment) error {
	work := s.liveExtents(victims)
	for _, v := range victims {
		if _, err := s.evacuate(v, work[v.seq]); err != nil {
			return err
		}
	}
	return nil
}

// TestModelRandomized runs seeded random sequences of writes,
// overwrites, forced cleanings, background-style maintenance passes,
// clean reopens, simulated kills (on user appends and on cleaner
// copies, torn at a random fraction) and checkpoint corruption against
// a plain byte-array model, verifying every byte after every reopen.
// Segments are a few records long, so rolls happen throughout.
func TestModelRandomized(t *testing.T) {
	const (
		seeds   = 24
		steps   = 250
		objects = 3
		span    = 6000
	)
	fracs := []float64{0, 0.3, 0.9, 1.0}
	for seed := range uint64(seeds) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x1b81d6e))
			dir := t.TempDir()
			cfg := Config{NoCompactor: true, CheckpointBytes: 2048, CompactMinBytes: 1, GarbageRatio: 0.3}
			s, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			sh := shadow{}
			armedFrac := -1.0 // < 0: no kill armed
			reopen := func(killed bool) {
				t.Helper()
				if !killed && rng.IntN(4) == 0 {
					kill(s) // a kill between operations: nothing torn, no final checkpoint
				} else {
					s.Close()
				}
				if rng.IntN(5) == 0 {
					os.Remove(filepath.Join(dir, ckptName))
				}
				if s, err = Open(dir, cfg); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				sh.verify(t, s)
				armedFrac = -1
			}
			for range steps {
				switch op := rng.IntN(100); {
				case op < 70: // write, often over existing bytes
					file := uint64(rng.IntN(objects))
					off := int64(rng.IntN(span))
					data := make([]byte, 1+rng.IntN(700))
					for i := range data {
						data[i] = byte(rng.Uint32())
					}
					switch err := s.WriteAt(file, off, data); {
					case err == nil:
						sh.write(file, off, data)
					case err == ErrCrashed && armedFrac >= 0:
						if armedFrac >= 1 {
							sh.write(file, off, data) // the whole frame is in the log
						}
						reopen(true)
					default:
						t.Fatalf("WriteAt: %v", err)
					}
				case op < 80: // forced cleaning
					switch err := s.Compact(); {
					case err == nil:
					case err == ErrCrashed && armedFrac >= 0:
						reopen(true)
					default:
						t.Fatalf("Compact: %v", err)
					}
				case op < 88: // what the background goroutine would run
					switch err := s.maintain(true); {
					case err == nil:
					case err == ErrCrashed && armedFrac >= 0:
						reopen(true)
					default:
						t.Fatalf("maintain: %v", err)
					}
				case op < 94: // arm a kill a few appends ahead
					armedFrac = fracs[rng.IntN(len(fracs))]
					s.CrashAppend(int64(1+rng.IntN(12)), armedFrac)
				default:
					reopen(false)
				}
			}
			s.CrashAppend(0, 0)
			sh.verify(t, s)
			st := s.Stats()
			if st.LiveBytes > st.LogBytes {
				t.Fatalf("LiveBytes %d > LogBytes %d", st.LiveBytes, st.LogBytes)
			}
			var live int64
			for _, o := range sh {
				live += int64(len(o))
			}
			if st.LiveBytes > live {
				t.Fatalf("LiveBytes %d exceeds the model's %d bytes", st.LiveBytes, live)
			}
		})
	}
}

// TestForegroundProgressDuringCleaning runs readers and writers against
// a store while a forced cleaning cycle copies several hundred batches,
// and requires that they keep completing operations throughout and that
// none of their calls waited for anything like the cycle: the cleaner
// holds the lock for one batch at a time. Every (object, offset) is only
// ever written with the same bytes, so a reader can check what it gets
// whenever it gets it.
func TestForegroundProgressDuringCleaning(t *testing.T) {
	const (
		rec     = 16 << 10
		objects = 4
		perObj  = 256 // records per object
	)
	content := func(file uint64, idx int) []byte {
		return fill(rec, byte(int(file)*31+idx))
	}
	// The background goroutine is on, as in a server (it installs the
	// periodic checkpoints; without it the write that makes one due
	// would install it itself, behind the cycle), but the garbage ratio
	// keeps it from starting a cycle of its own.
	cfg := Config{CheckpointBytes: 256 << 10, GarbageRatio: 0.9}
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 16 MB in 64 segments; then every other record is rewritten, which
	// leaves each of those segments half live: the cycle copies 8 MB.
	for idx := range perObj {
		for file := range uint64(objects) {
			if err := s.WriteAt(file, int64(idx)*rec, content(file, idx)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for idx := 0; idx < perObj; idx += 2 {
		for file := range uint64(objects) {
			if err := s.WriteAt(file, int64(idx)*rec, content(file, idx)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var stop atomic.Bool
	var worst, ops atomic.Int64
	var wg sync.WaitGroup
	timed := func(fn func() error) {
		start := time.Now()
		err := fn()
		d := int64(time.Since(start))
		if err != nil {
			t.Error(err)
			stop.Store(true)
		}
		for {
			w := worst.Load()
			if d <= w || worst.CompareAndSwap(w, d) {
				break
			}
		}
		ops.Add(1)
	}
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			buf := make([]byte, rec)
			for !stop.Load() {
				file, idx := uint64(rng.IntN(objects)), rng.IntN(perObj)
				if g%2 == 0 {
					timed(func() error { return s.WriteAt(file, int64(idx)*rec, content(file, idx)) })
					continue
				}
				timed(func() error { return s.ReadAt(file, int64(idx)*rec, buf) })
				if !bytes.Equal(buf, content(file, idx)) {
					t.Errorf("read of object %d record %d returned other bytes during cleaning", file, idx)
					stop.Store(true)
				}
			}
		}()
	}
	before := s.Stats()
	opsBefore := ops.Load()
	start := time.Now()
	err = s.Compact()
	cycle := time.Since(start)
	during := ops.Load() - opsBefore
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	copied := after.CopiedBytes - before.CopiedBytes
	if copied < 4<<20 {
		t.Fatalf("the cycle copied %d bytes; the fixture should leave it megabytes", copied)
	}
	batches := copied / cleanBatchBytes
	t.Logf("cycle %v: %d segments, %d bytes in ~%d batches; %d foreground ops during it, worst %v",
		cycle, after.CleanedSegments-before.CleanedSegments, copied, batches, during, time.Duration(worst.Load()))
	if during < batches {
		t.Fatalf("%d foreground operations completed during a cycle of %d batches: the foreground did not interleave with the cleaner", during, batches)
	}
	// One batch is ~1/batches of the cycle, a few tens of batches. The
	// bound leaves several batches for the scheduler and the race
	// detector on a loaded two-core host, and still fails by a wide
	// margin if a call waits out the cycle.
	if w := time.Duration(worst.Load()); w > cycle/3 {
		t.Fatalf("a foreground call took %v of a %v cycle (%d batches)", w, cycle, batches)
	}
}

// TestRecycledSegmentStaleRecordsNeverReplay fills a segment with many
// records, cleans it, and reuses its file as a segment that takes only
// a few records of the same size before a kill — so the old records sit
// behind the new tail exactly frame-aligned, stamped with the current
// generation, each a write the model has since overwritten. Reopened
// with the checkpoint trusted and again with it corrupted, the store
// must equal the model: only the checksum seed tells those records
// apart from the new segment's own.
func TestRecycledSegmentStaleRecordsNeverReplay(t *testing.T) {
	const (
		rec   = 40   // payload bytes per record
		old   = 28   // records that fill the first 2 KB segment
		fresh = 3    // records the reused segment takes before the kill
		span  = 4096 // object 2's filler range
	)
	for _, corrupt := range []bool{false, true} {
		for _, frac := range []float64{0, 0.5, 1.0} {
			t.Run(fmt.Sprintf("corrupt=%v/frac=%v", corrupt, frac), func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{NoCompactor: true, CheckpointBytes: 2048}
				s, err := Open(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sh := shadow{}
				write := func(file uint64, off int64, seed byte) {
					t.Helper()
					data := fill(rec, seed)
					if err := s.WriteAt(file, off, data); err != nil {
						t.Fatal(err)
					}
					sh.write(file, off, data)
				}
				for i := range old {
					write(1, int64(i)*rec, byte(i))
				}
				// Overwriting every record leaves segment 1 wholly dead.
				for i := range old {
					write(1, int64(i)*rec, byte(100+i))
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				if st := s.Stats(); st.CleanedSegments == 0 || len(s.free) == 0 {
					t.Fatalf("cleaned %d segments, %d free files; want segment 1 on the free list", st.CleanedSegments, len(s.free))
				}
				// Fill the active segment until the roll takes the free file.
				for i := 0; s.Stats().RecycledSegments == 0; i++ {
					if i == span/rec {
						t.Fatal("no roll reused the free file")
					}
					write(2, int64(i)*rec, byte(200+i))
				}
				for i := range fresh - 1 {
					write(1, int64(i)*rec, byte(50+i))
				}
				if fi, err := s.active.f.Stat(); err != nil || fi.Size() <= s.active.size {
					t.Fatalf("reused segment: file %v bytes, tail %d (%v); want old records past the tail", fi.Size(), s.active.size, err)
				}
				s.CrashAppend(1, frac)
				data := fill(rec, 77)
				if err := s.WriteAt(1, (fresh-1)*rec, data); err != ErrCrashed {
					t.Fatalf("armed WriteAt = %v, want ErrCrashed", err)
				}
				if frac >= 1 {
					sh.write(1, (fresh-1)*rec, data)
				}
				s.Close()
				s = reopenVerify(t, dir, sh, corrupt)
				// A clean reopen after the recovery finds the same state.
				s.Close()
				reopenVerify(t, dir, sh, false).Close()
			})
		}
	}
}

// TestConcurrentWritersAcrossRolls runs four writers over overlapping
// ranges of two objects, with 4 KB segments and the background cleaner
// on, so rolls race each other for the spare and reuse cleaned files
// throughout; then it closes, reopens and byte-verifies the store. The
// writers move in rounds: within one every write of a byte carries the
// same value, so the model holds whatever order the writes landed in,
// and a stale record replayed from an earlier round shows. A fifth
// goroutine runs Compact once per round while the writers run, so
// cleaning overlaps the writes whether or not the background cleaner
// gets a turn.
func TestConcurrentWritersAcrossRolls(t *testing.T) {
	const (
		writers  = 4
		rounds   = 60
		perRound = 4 // writes per writer per round
		objects  = 2
		span     = 8 << 10
	)
	content := func(round int, off int64, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			o := off + int64(i)
			b[i] = byte(o*7 + int64(round)*13 + o>>8)
		}
		return b
	}
	dir := t.TempDir()
	cfg := Config{CheckpointBytes: 4096, CompactMinBytes: 16 << 10}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := shadow{}
	for round := range rounds {
		type w struct {
			file uint64
			off  int64
			n    int
		}
		var plan [writers][perRound]w
		rng := rand.New(rand.NewPCG(uint64(round), 0x5eed))
		for g := range writers {
			for i := range perRound {
				plan[g][i] = w{uint64(rng.IntN(objects)), int64(rng.IntN(span)), 256 + rng.IntN(1024)}
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Compact(); err != nil {
				t.Error(err)
			}
		}()
		for g := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, x := range plan[g] {
					if err := s.WriteAt(x.file, x.off, content(round, x.off, x.n)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for g := range writers {
			for _, x := range plan[g] {
				sh.write(x.file, x.off, content(round, x.off, x.n))
			}
		}
	}
	sh.verify(t, s)
	st := s.Stats()
	t.Logf("rolls %d, cleaning cycles %d, cleaned %d, recycled %d", st.Rolls, st.CompactionRuns, st.CleanedSegments, st.RecycledSegments)
	if st.Rolls < 50 || st.RecycledSegments == 0 {
		t.Fatalf("rolls=%d recycled=%d; want at least 50 rolls, some onto reused files", st.Rolls, st.RecycledSegments)
	}
	if st.CompactionRuns == 0 {
		t.Fatal("no cleaning cycle ran during the writes")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh.verify(t, s)
	// Close trimmed the reused files' old records: no torn tail.
	if st := s.Stats(); st.TruncatedTails != 0 {
		t.Fatalf("TruncatedTails = %d after a clean close", st.TruncatedTails)
	}
}
