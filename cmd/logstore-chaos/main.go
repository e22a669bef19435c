// Command logstore-chaos is the kill-at-every-Kth-op recovery loop
// gating the crash-consistency claims of internal/logstore (DESIGN
// §14). For each K in a sweep it runs a canned, seeded write workload
// against a store that simulates a process kill on every Kth record
// append — torn mid-frame, torn at zero bytes, or fully written but
// unacknowledged, rotating deterministically — then reopens the store,
// replays the journal, and byte-verifies every object against an
// in-memory shadow after every single crash:
//
//   - an acknowledged write must never lose a byte (zero data loss);
//   - a torn append must be truncated and invisible (record
//     atomicity);
//   - a fully-durable-but-unacknowledged append must read back as
//     exactly the write that was issued (idempotent re-issue).
//
// The store runs with 4 KB segments and a forced cleaning every 25
// writes, and the kill counter counts the cleaner's copies too, so the
// kills land on segment rolls and in the middle of cleaning cycles as
// well as on user writes.
//
// Nothing in the loop consults a clock or a random source, so two runs
// print byte-identical RECOVERY SUMMARY sections — `make chaos-smoke`
// runs it twice and diffs, and CI keeps the summary as an artifact.
// The sweep must also tear at least one tail (nonzero truncated_tails
// overall), and every K must roll a segment, clean one with live
// copies, and reuse a cleaned segment's file, or the run fails: a kill
// loop that never produces a torn frame, never interrupts the cleaner,
// or never kills over a reused file's old records isn't testing their
// recovery.
//
// Usage:
//
//	logstore-chaos [-ops 80] [-seed 42] [-ks 3,5,7,13] [-dir DIR]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/logstore"
)

const (
	objects     = 4
	maxWriteLen = 1024
	offsetSpan  = 8192 // small enough that writes overlap and create garbage
	compactEach = 25   // ops between forced cleanings
	// segmentBytes is the store's CheckpointBytes: segments of a few
	// records, so every K in the sweep crosses rolls, periodic
	// checkpoints with a replayed suffix, and cleanings with live copies.
	segmentBytes = 4096
)

// tornFracs rotates across crashes: a half-written frame (the torn
// tail replay must truncate), a zero-byte tear (nothing reached the
// device), and a fully-written frame the writer never saw acknowledged
// (replay must apply it; the driver's re-issue is then idempotent).
var tornFracs = []float64{0.5, 0, 1.0}

// shadow is the reference model the store must match after every
// recovery.
type shadow map[uint64][]byte

func (sh shadow) write(file uint64, off int64, data []byte) {
	o := sh[file]
	if end := off + int64(len(data)); int64(len(o)) < end {
		grown := make([]byte, end)
		copy(grown, o)
		o = grown
	}
	copy(o[off:], data)
	sh[file] = o
}

// op derives the i-th write of the canned workload from the seed:
// object, offset, length, and content are all pure functions of
// (seed, i).
func op(seed uint64, i int) (file uint64, off int64, data []byte) {
	x := faults.Mix64(seed ^ uint64(i))
	file = x % objects
	off = int64((x >> 8) % offsetSpan)
	n := 64 + int((x>>32)%uint64(maxWriteLen-64))
	data = make([]byte, n)
	for j := range data {
		data[j] = byte(faults.Mix64(x+uint64(j>>3)) >> uint(8*(j&7)))
	}
	return file, off, data
}

// verify checks every shadow object byte-for-byte, plus zero-fill past
// its end, and returns the total bytes compared.
func verify(s *logstore.LogStore, sh shadow, where string) int64 {
	var total int64
	for file := uint64(0); file < objects; file++ {
		want := sh[file]
		size, err := s.Size(file)
		if err != nil {
			log.Fatalf("logstore-chaos: %s: Size(%d): %v", where, file, err)
		}
		if size != int64(len(want)) {
			log.Fatalf("logstore-chaos: %s: object %d size %d, want %d", where, file, size, len(want))
		}
		got := make([]byte, len(want)+64)
		if err := s.ReadAt(file, 0, got); err != nil {
			log.Fatalf("logstore-chaos: %s: ReadAt(%d): %v", where, file, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			log.Fatalf("logstore-chaos: %s: object %d DIVERGED from shadow — acknowledged data lost", where, file)
		}
		if !bytes.Equal(got[len(want):], make([]byte, 64)) {
			log.Fatalf("logstore-chaos: %s: object %d not zero-filled past EOF", where, file)
		}
		total += int64(len(want))
	}
	return total
}

// kResult is one K's deterministic outcome line.
type kResult struct {
	k                  int
	crashes            int64
	replays            int64
	truncatedTails     int64
	replayedRecords    int64
	checkpoints        int64
	compactions        int64
	rolls              int64
	cleanedSegments    int64
	recycledSegments   int64
	copiedBytes        int64
	verifiedBytes      int64
	finalLogBytes      int64
	finalLiveBytes     int64
	acknowledgedWrites int64
}

// runK drives the full workload at kill interval k and returns the
// accumulated recovery counters.
func runK(dir string, seed uint64, ops, k int) kResult {
	cfg := logstore.Config{
		NoCompactor:     true, // cleaning at deterministic op indices instead
		CheckpointBytes: segmentBytes,
	}
	s, err := logstore.Open(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sh := shadow{}
	res := kResult{k: k}
	accumulate := func(st logstore.Stats) {
		res.replays += st.Replays
		res.truncatedTails += st.TruncatedTails
		res.replayedRecords += st.ReplayedRecords
		res.checkpoints += st.Checkpoints
		res.compactions += st.CompactionRuns
		res.rolls += st.Rolls
		res.cleanedSegments += st.CleanedSegments
		res.recycledSegments += st.RecycledSegments
		res.copiedBytes += st.CopiedBytes
		res.acknowledgedWrites += st.Appends
	}
	arm := func() { s.CrashAppend(int64(k), tornFracs[res.crashes%int64(len(tornFracs))]) }
	// reopen reopens the store after a fired kill and byte-verifies it.
	reopen := func() {
		res.crashes++
		accumulate(s.Stats())
		if err := s.Close(); err != nil {
			log.Fatalf("logstore-chaos: close after crash: %v", err)
		}
		var err error
		s, err = logstore.Open(dir, cfg)
		if err != nil {
			log.Fatalf("logstore-chaos: reopen after crash %d: %v", res.crashes, err)
		}
		res.verifiedBytes += verify(s, sh, fmt.Sprintf("K=%d crash=%d", k, res.crashes))
		arm()
	}
	arm()
	for i := 0; i < ops; i++ {
		file, off, data := op(seed, i)
		for {
			err := s.WriteAt(file, off, data)
			if err == nil {
				sh.write(file, off, data)
				break
			}
			if err != logstore.ErrCrashed {
				log.Fatalf("logstore-chaos: write %d: %v", i, err)
			}
			// The simulated kill fired mid-append. A fully-written frame
			// (frac 1.0) is durable even though the writer got no ack —
			// replay applies it, and the re-issue below rewrites the same
			// bytes (idempotence). Torn frames must vanish.
			frac := tornFracs[res.crashes%int64(len(tornFracs))]
			if frac >= 1.0 {
				sh.write(file, off, data)
			}
			reopen()
		}
		if (i+1)%compactEach == 0 {
			// A kill that lands on one of the cleaner's copies changes no
			// object: torn or whole, the copy rewrites bytes already
			// there. The cleaning is re-run after each until one finishes.
			for {
				err := s.Compact()
				if err == nil {
					break
				}
				if err != logstore.ErrCrashed {
					log.Fatalf("logstore-chaos: compact at op %d: %v", i, err)
				}
				reopen()
			}
		}
	}
	s.CrashAppend(0, 0) // disarm before the clean close
	res.verifiedBytes += verify(s, sh, fmt.Sprintf("K=%d final", k))
	st := s.Stats()
	res.finalLogBytes, res.finalLiveBytes = st.LogBytes, st.LiveBytes
	accumulate(st)
	if err := s.Close(); err != nil {
		log.Fatalf("logstore-chaos: final close: %v", err)
	}
	// One last cold reopen: the cleanly-closed store must come back
	// byte-identical too.
	s, err = logstore.Open(dir, cfg)
	if err != nil {
		log.Fatalf("logstore-chaos: cold reopen: %v", err)
	}
	res.verifiedBytes += verify(s, sh, fmt.Sprintf("K=%d cold-reopen", k))
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	ops := flag.Int("ops", 80, "writes per K in the canned workload")
	seed := flag.Uint64("seed", 42, "workload seed (content, offsets, sizes)")
	ks := flag.String("ks", "3,5,7,13", "comma-separated kill intervals: crash on every Kth record append")
	dir := flag.String("dir", "", "working directory (default: a fresh temp dir, removed afterwards)")
	flag.Parse()

	root := *dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "logstore-chaos-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(root)
	}

	var results []kResult
	for _, part := range strings.Split(*ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			log.Fatalf("logstore-chaos: bad -ks entry %q", part)
		}
		kdir := filepath.Join(root, fmt.Sprintf("k%d", k))
		if err := os.RemoveAll(kdir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("K=%d: killing on every %dth append over %d ops\n", k, k, *ops)
		results = append(results, runK(kdir, *seed, *ops, k))
	}

	// The summary is the reproducibility contract: every number below is
	// a pure function of (seed, ops, ks), so two runs diff clean.
	fmt.Println("\nRECOVERY SUMMARY")
	fmt.Printf("seed: %d ops: %d\n", *seed, *ops)
	var totalTorn, totalCrashes int64
	for _, r := range results {
		fmt.Printf("K=%d crashes=%d replays=%d truncated_tails=%d replayed_records=%d checkpoints=%d compactions=%d rolls=%d cleaned_segments=%d recycled_segments=%d copied_bytes=%d acked_writes=%d verified_bytes=%d log_bytes=%d live_bytes=%d\n",
			r.k, r.crashes, r.replays, r.truncatedTails, r.replayedRecords,
			r.checkpoints, r.compactions, r.rolls, r.cleanedSegments, r.recycledSegments, r.copiedBytes,
			r.acknowledgedWrites, r.verifiedBytes, r.finalLogBytes, r.finalLiveBytes)
		totalTorn += r.truncatedTails
		totalCrashes += r.crashes
		if r.rolls == 0 || r.cleanedSegments == 0 || r.copiedBytes == 0 {
			log.Fatalf("logstore-chaos: K=%d never rolled a segment or never cleaned one with live copies — segmentBytes too large for the workload", r.k)
		}
		if r.recycledSegments == 0 {
			log.Fatalf("logstore-chaos: K=%d never reused a cleaned segment's file — recovery over a reused file's old records went unexercised", r.k)
		}
	}
	fmt.Printf("total: crashes=%d truncated_tails=%d\n", totalCrashes, totalTorn)
	if totalCrashes == 0 {
		log.Fatal("logstore-chaos: the sweep never crashed — K too large for the workload")
	}
	if totalTorn == 0 {
		log.Fatal("logstore-chaos: the sweep never tore a tail — torn-frame recovery went unexercised")
	}
	fmt.Println("logstore-chaos: completed, zero data loss across all kills")
}
