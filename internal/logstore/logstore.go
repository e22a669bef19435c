// Package logstore is the crash-consistent, log-structured object
// store backing pfsnet data servers on an SSD: the durable analogue of
// the paper's on-SSD fragment log and mapping table (PAPER.md §4).
//
// Every write appends one checksummed, length-prefixed record to the
// active log segment (the checksum seeded with the segment's sequence,
// record.go); an in-memory mapping table (per-object sorted
// extent index over log offsets) resolves reads. Durability and
// recovery come from three mechanisms (DESIGN §14):
//
//   - Journal replay. Open loads the most recent durable checkpoint
//     (the serialized mapping table) and replays the log past it: the
//     suffix of the segment it was appending to, then every newer
//     segment in sequence order. The first record that fails to frame
//     or checksum marks the torn tail: the file is truncated there, so
//     a crash mid-append loses at most the record being written — never
//     an acknowledged one, and never a byte of one (records are atomic).
//   - Checkpoints. The mapping table is encoded under the store lock
//     and then — outside it — written to a staging file, fsynced, and
//     renamed over the previous checkpoint, after every CheckpointBytes
//     of appended log, after every cleaning cycle, at every clean
//     Close, and once per Open (which also stamps the new generation).
//     A corrupt or missing checkpoint is never trusted: Open falls
//     back to replaying every surviving segment from offset zero,
//     which reconstructs the identical state (the checkpoint is an
//     accelerator, not a source of truth).
//   - Generation stamps. Each Open bumps the store generation and
//     every record carries the generation that appended it. Records
//     replayed past a checkpoint must carry exactly the checkpoint's
//     generation (full replay: non-decreasing generations); anything
//     else is treated as corruption and truncated. Re-issued writeback
//     after a crash/restart appends a fresh record under the new
//     generation — applying it on top of a survivor of the old one is
//     idempotent (last-writer-wins over identical bytes).
//
// The log is segmented: the active segment rolls when it reaches
// CheckpointBytes, and sealed segments are immutable. Once the sealed
// segments' dead-byte ratio passes Config.GarbageRatio the maintenance
// goroutine cleans them incrementally (clean.go): the sealed segments
// with the fewest live bytes have those bytes re-appended through the
// ordinary append path in small batches, and once the copies are
// fsynced and a checkpoint that no longer references them is installed
// they are renamed onto a free list (unlinked past its bound). The next
// segment reuses a free file when there is one — new header, new name,
// old records left in place behind the tail, where their checksums'
// seeds keep replay from taking them — so appends overwrite pages the
// page cache already holds instead of allocating fresh ones. No fsync,
// rename, unlink or copy loop runs under the store lock. The union of
// surviving segments replayed in (sequence, offset) order always
// reproduces the store state, whatever instant a crash interrupts
// cleaning at.
//
// A data server's object store is its disk, not its SSD: the fault
// plan's ssdfail clause fails the server's fragment log and never this
// store, which keeps serving and stays durable (DESIGN §10, §14).
package logstore

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/extent"
	"repro/internal/obs"
)

// ErrCrashed reports an operation against a store whose simulated
// process kill (CrashAppend) has already fired: the store is dead
// until the next Open replays the log.
var ErrCrashed = fmt.Errorf("logstore: simulated crash; reopen to recover")

// Config tunes one store instance. The zero value gives usable
// defaults.
type Config struct {
	// CheckpointBytes is the segment size: the active segment rolls
	// once it holds this many bytes, and a mapping-table checkpoint is
	// installed after this many appended log bytes (default 4 MB;
	// negative keeps the default segment size and disables periodic
	// checkpoints — Open, clean Close and the cleaner still install
	// one).
	CheckpointBytes int64
	// GarbageRatio triggers background cleaning when dead bytes / total
	// data bytes over the sealed segments exceeds it (default 0.5; must
	// be in (0, 1)).
	GarbageRatio float64
	// CompactMinBytes suppresses cleaning below this much appended
	// data, so tiny stores don't churn (default 1 MB).
	CompactMinBytes int64
	// NoCompactor disables the background maintenance goroutine:
	// periodic checkpoints are installed by the write that makes them
	// due, and cleaning runs only when tests and the recovery harness
	// call Compact.
	NoCompactor bool
	// Obs, when set, receives "logstore.*" metrics (appends, log/live
	// bytes, checkpoints, replays, truncated tails, cleaning cycles).
	// Stats reads the same counters, so stores that share a registry,
	// a store and its reopen included, see their sums there.
	Obs *obs.Registry
	// Tracer, when set, records replay/checkpoint/cleaning spans
	// under Scope.
	Tracer *obs.XTracer
	// Scope names this store in spans and log lines (e.g. "srv0").
	Scope string
}

// Stats is a snapshot of store activity since Open.
type Stats struct {
	// Appends counts acknowledged user record appends; AppendedBytes
	// the payload bytes of every record appended, cleaner copies
	// included (AppendedBytes over the user bytes written is the
	// store's write amplification).
	Appends, AppendedBytes int64
	// LogBytes is the current on-disk log size (all segments, frames
	// included); LiveBytes the data bytes still referenced by the
	// mapping table.
	LogBytes, LiveBytes int64
	// Checkpoints counts installed checkpoints; Replays counts Opens
	// that found existing state; ReplayedRecords the records applied
	// by those replays.
	Checkpoints, Replays, ReplayedRecords int64
	// TruncatedTails counts torn tails cut off during replay;
	// BadGenerations counts records rejected by the generation check;
	// BadCheckpoints counts checkpoints that failed validation and
	// forced a full replay.
	TruncatedTails, BadGenerations, BadCheckpoints int64
	// CompactionRuns counts completed cleaning cycles, CleanedSegments
	// the sealed segments they retired, CopiedBytes the live payload
	// bytes they re-appended; Rolls counts active-segment rolls, and
	// RecycledSegments the segments that reused a retired one's file.
	CompactionRuns, CleanedSegments, CopiedBytes, Rolls int64
	RecycledSegments                                    int64
	// Generation is the store generation stamped on new records.
	Generation uint64
	// Crashed reports a fired simulated kill.
	Crashed bool
}

// segment is one log file. Only the active segment is appended to; a
// sealed one is immutable until the cleaner retires it.
type segment struct {
	seq    uint64
	seed   uint32 // crcSeed(seq): the checksum state every record here starts from
	f      *os.File
	size   int64 // on-disk bytes, header included; the append offset while active
	synced int64 // size the last fsync covered
	data   int64 // payload bytes appended to it: live + dead
	live   int64 // payload bytes the mapping table still references
	// reused marks a segment that took over a retired one's file: past
	// size it may still hold that segment's records, until a clean Close
	// trims them.
	reused bool
	// pins counts reads in flight outside mu. A pin is taken under mu
	// while the segment is in segs; whoever closes the file removes the
	// segment from segs under mu first, so its Wait sees every pin.
	pins sync.WaitGroup
}

// newSegment returns the segment seq over f, size bytes long.
func newSegment(seq uint64, f *os.File, size int64) *segment {
	return &segment{seq: seq, seed: crcSeed(seq), f: f, size: size}
}

// LogStore implements pfsnet.ObjectStore over an append-only,
// checksummed, segmented log with checkpointed recovery. Safe for
// concurrent use: appends serialize on the lock, reads resolve their
// extents under it and pread outside it, maintenance (checkpoints,
// cleaning) does its file I/O outside it.
type LogStore struct {
	dir      string
	cfg      Config
	segBytes int64 // the active segment rolls once it holds this much

	// mu guards all mutable state below. Appends write the log file
	// inside the critical section deliberately: the log's append order
	// IS the replay apply order, so the write cannot move outside the
	// lock without reordering recovery. Nothing else does file I/O
	// under it (the lockio analyzer holds every *Locked helper to that).
	mu      sync.RWMutex
	segs    map[uint64]*segment // active and sealed segments
	active  *segment
	spare   *segment // created ahead of a roll by prepareSpare, not yet in segs
	nextSeq uint64   // sequence of the next segment to create
	// preparing is closed when the prepareSpare in flight ends; nil
	// when none is.
	preparing chan struct{}
	// free holds retired segments renamed to their free path, handles
	// open, for prepareSpare to reuse; at most cleanCycleSegments.
	free    []*segment
	objects map[uint64]*object
	gen     uint64

	liveBytes  int64 // data bytes referenced by the mapping table
	dataBytes  int64 // data bytes appended across segs (live+dead)
	frameBytes int64 // on-disk bytes across segs
	sinceCkpt  int64 // log bytes appended since the last checkpoint was encoded
	enc        []byte
	closed     bool

	// Simulated-kill injection (CrashAppend): when crashAfter counts
	// down to zero the append writes only a prefix of its frame and the
	// store latches dead, exactly as if the process took SIGKILL
	// between two pwrites.
	crashAfter int64
	crashFrac  float64
	crashed    bool

	// st holds the counts behind Stats. The events and gauges named
	// logstore.* are the registry's (Config.Obs, or a private one), so
	// each event is counted once.
	st struct {
		appendedBytes, cleanedSegments, copiedBytes, rolls int64
		appends, checkpoints, replays, replayedRecords     *obs.Counter
		truncatedTails, badGenerations, badCheckpoints     *obs.Counter
		compactionRuns, recycledSegments                   *obs.Counter
		logBytes, liveBytes                                *obs.Gauge
	}

	// maint is the maintenance token: whoever installs a checkpoint or
	// runs a cleaning cycle holds it, so checkpoints install in the
	// order they were encoded and one cleaner owns the sealed segments.
	// A channel, not a mutex, because its holder fsyncs and renames; no
	// request path takes it (NoCompactor's inline checkpoint aside).
	maint chan struct{}
	// cleanBuf is the cleaner's batch buffer (up to cleanBatchBytes),
	// kept across cycles; the maintenance token's holder owns it.
	cleanBuf  []byte
	quit      chan struct{}
	kickC     chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

const (
	segPrefix    = "seg-"
	freePrefix   = "free-"
	segSuffix    = ".log"
	segHeaderLen = 16 // magic + sequence
	ckptName     = "checkpoint"
	ckptTmpName  = "checkpoint.tmp"

	defaultSegBytes = 4 << 20
)

var segMagic = [8]byte{'I', 'B', 'L', 'S', 'E', 'G', '0', '2'}

// segMagicV1 stamps the previous segment format, whose record
// checksums carry no seed: this build would read every one of its
// records as a torn tail, so Open refuses such a store instead.
var segMagicV1 = [8]byte{'I', 'B', 'L', 'S', 'E', 'G', '0', '1'}

// Open opens (or creates) the store under dir, replaying any existing
// journal: the checkpointed mapping table is loaded, the log past it is
// replayed, torn tails are truncated, and a fresh checkpoint is
// installed under the bumped generation before the store serves.
func Open(dir string, cfg Config) (*LogStore, error) {
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = defaultSegBytes
	}
	if cfg.GarbageRatio <= 0 || cfg.GarbageRatio >= 1 {
		cfg.GarbageRatio = 0.5
	}
	if cfg.CompactMinBytes <= 0 {
		cfg.CompactMinBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &LogStore{
		dir:      dir,
		cfg:      cfg,
		segBytes: cfg.CheckpointBytes,
		segs:     make(map[uint64]*segment),
		objects:  make(map[uint64]*object),
		maint:    make(chan struct{}, 1),
		quit:     make(chan struct{}),
		kickC:    make(chan struct{}, 1),
	}
	if s.segBytes < 0 {
		s.segBytes = defaultSegBytes
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.st.appends = reg.Counter("logstore.appends")
	s.st.checkpoints = reg.Counter("logstore.checkpoints")
	s.st.replays = reg.Counter("logstore.replays")
	s.st.replayedRecords = reg.Counter("logstore.replayed_records")
	s.st.truncatedTails = reg.Counter("logstore.truncated_tails")
	s.st.badGenerations = reg.Counter("logstore.bad_generations")
	s.st.badCheckpoints = reg.Counter("logstore.bad_checkpoints")
	s.st.compactionRuns = reg.Counter("logstore.compaction_runs")
	s.st.recycledSegments = reg.Counter("logstore.recycled_segments")
	s.st.logBytes = reg.Gauge("logstore.log_bytes")
	s.st.liveBytes = reg.Gauge("logstore.live_bytes")
	if err := s.recover(); err != nil {
		s.closeSegments()
		return nil, err
	}
	if !cfg.NoCompactor {
		s.wg.Add(1)
		go s.maintainer()
	}
	return s, nil
}

// segPath returns the path of segment seq.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix))
}

// freePath returns the path retired segment seq waits under for reuse.
func freePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", freePrefix, seq, segSuffix))
}

// removeFreeFiles deletes the free files a killed run left under dir:
// they hold nothing live, and a free list lasts one run.
func removeFreeFiles(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, freePrefix+"*"+segSuffix))
	for _, p := range paths {
		if rerr := os.Remove(p); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// listSegments returns the sequence numbers of the segment files under
// dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// recover rebuilds the mapping table from the checkpoint and journal,
// truncates torn tails, bumps the generation, and installs the
// recovery checkpoint. Called from Open, before any concurrency.
func (s *LogStore) recover() error {
	start := time.Now()
	if err := removeFreeFiles(s.dir); err != nil {
		return err
	}
	ck, ckOK := loadCheckpoint(filepath.Join(s.dir, ckptName))
	seqs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	hadState := ckOK || len(seqs) > 0
	// Every segment the table references, and the one the checkpoint
	// was appending to, must survive on disk or the checkpoint is not
	// trustworthy.
	var refs map[uint64]bool
	if ckOK {
		refs = ck.refs()
		for _, seq := range sortedKeys(refs) {
			if !containsSeq(seqs, seq) {
				ckOK = false
				break
			}
		}
	}
	if !ckOK && hadState {
		s.st.badCheckpoints.Inc()
	}
	if ckOK {
		// Under a valid checkpoint a segment older than the one it was
		// appending to was already sealed when the table was encoded:
		// unreferenced, it holds nothing live (a cleaned victim whose
		// retirement the crash pre-empted) and is deleted. Everything newer
		// was appended after the table was encoded and is replayed.
		kept := seqs[:0]
		for _, seq := range seqs {
			if seq < ck.seg && !refs[seq] {
				os.Remove(segPath(s.dir, seq))
				continue
			}
			kept = append(kept, seq)
		}
		seqs = kept
		s.gen = ck.gen
		s.objects = ck.objects
	}
	for _, seq := range seqs {
		seg, err := s.openSegment(seq)
		if err != nil {
			return err
		}
		s.segs[seq] = seg
		s.active = seg
		s.frameBytes += seg.size
		if ckOK && seq <= ck.seg {
			seg.data = ck.segData[seq]
			s.dataBytes += seg.data
		}
	}
	if ckOK {
		for _, id := range sortedKeys(s.objects) {
			for _, e := range s.objects[id].ext {
				s.segs[e.Seg].live += e.N
				s.liveBytes += e.N
			}
		}
	}
	// Replay in (sequence, offset) order. Past a checkpoint every record
	// must carry exactly its generation — the generation is re-stamped
	// by the checkpoint every Open installs, so any other value is
	// corruption, not history. Without one, generations must be
	// non-decreasing in append order, oldest segment first.
	var lastGen uint64
	for _, seq := range seqs {
		switch {
		case !ckOK:
			err = s.replaySegment(s.segs[seq], segHeaderLen, lastGen, false)
			lastGen = s.gen
		case seq == ck.seg:
			err = s.replaySegment(s.segs[seq], ck.off, ck.gen, true)
		case seq > ck.seg:
			err = s.replaySegment(s.segs[seq], segHeaderLen, ck.gen, true)
		}
		if err != nil {
			return err
		}
	}
	if s.active == nil {
		f, err := createSegment(s.dir, 1)
		if err != nil {
			return err
		}
		s.active = newSegment(1, f, segHeaderLen)
		s.segs[1] = s.active
		s.frameBytes = segHeaderLen
	}
	s.nextSeq = s.active.seq + 1
	s.gen++ // this run's generation
	if hadState {
		s.st.replays.Inc()
	}
	// The recovery checkpoint stamps the new generation and makes the
	// truncated, replayed state durable before the store serves.
	if err := s.checkpoint(nil); err != nil {
		return err
	}
	if tr := s.cfg.Tracer; tr != nil {
		tr.Span(tr.NewID(), tr.NewID(), 0, "logstore.replay", s.cfg.Scope, start, time.Since(start))
	}
	return nil
}

// containsSeq reports whether seqs (ascending) contains seq.
func containsSeq(seqs []uint64, seq uint64) bool {
	i := sort.Search(len(seqs), func(i int) bool { return seqs[i] >= seq })
	return i < len(seqs) && seqs[i] == seq
}

// segHeader returns the 16-byte header of segment seq.
func segHeader(seq uint64) (hdr [segHeaderLen]byte) {
	copy(hdr[:8], segMagic[:])
	putU64(hdr[8:], seq)
	return hdr
}

// stampSegment writes segment seq's header over the head of f.
func stampSegment(f *os.File, seq uint64) error {
	hdr := segHeader(seq)
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// createSegment creates and stamps segment seq.
func createSegment(dir string, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, seq), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := stampSegment(f, seq); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// reuseSegment turns the free file of retired segment old into segment
// seq: it stamps the new header, then renames the file onto seq's path,
// leaving the old records past the header in place. A kill between the
// two leaves a free file, which Open deletes; one after leaves segment
// seq holding only records checksummed under other sequences, which
// replay rejects and truncates. On error the file is closed and
// removed.
func reuseSegment(dir string, old *segment, seq uint64) (*os.File, error) {
	err := stampSegment(old.f, seq)
	if err == nil {
		err = os.Rename(freePath(dir, old.seq), segPath(dir, seq))
	}
	if err != nil {
		old.f.Close()
		os.Remove(freePath(dir, old.seq))
		return nil, err
	}
	return old.f, nil
}

// openSegment opens the existing segment seq for recovery. A segment
// whose header is torn (shorter than the header, or stamped wrong) is
// reset to an empty stamped segment — the header write itself can be
// the interrupted operation. A segment stamped in the previous format
// is an error, not a torn header: resetting it would silently drop the
// store's data.
func (s *LogStore) openSegment(seq uint64) (*segment, error) {
	path := segPath(s.dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	var magic [8]byte
	ok := size >= segHeaderLen
	if ok {
		if _, err := f.ReadAt(magic[:], 0); err != nil || magic != segMagic {
			ok = false
		}
		if magic == segMagicV1 {
			f.Close()
			return nil, fmt.Errorf("logstore: %s is in the %s segment format, which this build cannot replay; the store was written by an older build", path, segMagicV1[:])
		}
	}
	if !ok {
		if err := stampSegment(f, seq); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Truncate(segHeaderLen); err != nil {
			f.Close()
			return nil, err
		}
		size = segHeaderLen
	}
	return newSegment(seq, f, size), nil
}

// replaySegment applies the records of seg from byte offset from to
// its end. strict pins every record's generation to wantGen (replay
// past a checkpoint); otherwise generations must be non-decreasing
// starting at wantGen and s.gen tracks the highest seen. The first
// framing, checksum, or generation violation truncates the segment
// there (the torn tail) and ends its replay.
func (s *LogStore) replaySegment(seg *segment, from int64, wantGen uint64, strict bool) error {
	from = min(max(from, segHeaderLen), seg.size)
	buf := make([]byte, seg.size-from)
	if _, err := seg.f.ReadAt(buf, from); err != nil && err != io.EOF {
		return err
	}
	pos := from
	lastGen := wantGen
	for len(buf) > 0 {
		rec, n, err := decodeRecord(buf, seg.seed)
		if err == nil {
			if strict && rec.gen != wantGen {
				err = fmt.Errorf("logstore: generation %d, checkpoint stamped %d", rec.gen, wantGen)
			} else if !strict && rec.gen < lastGen {
				err = fmt.Errorf("logstore: generation regressed %d -> %d", lastGen, rec.gen)
			}
			if err != nil {
				s.st.badGenerations.Inc()
			}
		}
		if err != nil {
			// Torn tail: everything from pos on never happened.
			if terr := seg.f.Truncate(pos); terr != nil {
				return terr
			}
			s.frameBytes -= seg.size - pos
			seg.size = pos
			s.st.truncatedTails.Inc()
			return nil
		}
		s.applyLocked(rec.file, extent.Extent{
			Off: rec.off, N: int64(len(rec.data)),
			Seg: seg.seq, Pos: pos + recOverhead, Gen: rec.gen,
		})
		lastGen = rec.gen
		if !strict && rec.gen > s.gen {
			s.gen = rec.gen
		}
		s.st.replayedRecords.Inc()
		buf = buf[n:]
		pos += int64(n)
	}
	return nil
}

// object is the in-memory index of one stored object: its logical size
// (monotone, sparse-write semantics) and the extent list over the log.
type object struct {
	size int64
	ext  extent.List
}

// applyLocked publishes one appended record in the mapping table and
// moves the byte accounting with it: the record's bytes are live in
// its segment, the bytes it supersedes become garbage in theirs.
func (s *LogStore) applyLocked(file uint64, e extent.Extent) {
	o := s.objects[file]
	if o == nil {
		o = &object{}
		s.objects[file] = o
	}
	o.size = max(o.size, e.Off+e.N)
	o.ext.Insert(e, func(seg uint64, n int64) {
		s.segs[seg].live -= n
		s.liveBytes -= n
	})
	seg := s.segs[e.Seg]
	seg.data += e.N
	seg.live += e.N
	s.dataBytes += e.N
	s.liveBytes += e.N
}

// deadLocked reports why the store serves nothing any more: a fired
// simulated kill, or Close.
func (s *LogStore) deadLocked() error {
	switch {
	case s.crashed:
		return ErrCrashed
	case s.closed:
		return os.ErrClosed
	}
	return nil
}

// WriteAt implements pfsnet.ObjectStore: the write becomes one
// checksummed record appended to the active segment, acknowledged only
// after the log write returns, then published in the mapping table.
func (s *LogStore) WriteAt(file uint64, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("logstore: negative offset %d", off)
	}
	if int64(len(data)) > math.MaxInt64-off {
		return fmt.Errorf("logstore: write [%d,+%d) overflows int64", off, len(data))
	}
	if int64(len(data)) > MaxRecordData {
		return fmt.Errorf("logstore: write of %d bytes exceeds record limit %d", len(data), int64(MaxRecordData))
	}
	if len(data) == 0 {
		return nil
	}
	for {
		s.mu.Lock()
		if err := s.deadLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
		needSeg, err := s.appendLocked(file, off, data, true)
		ckpt, clean := s.ckptDueLocked(), s.needCleanLocked()
		s.mu.Unlock()
		switch {
		case needSeg:
			if err := s.prepareSpare(); err != nil {
				return err
			}
			continue
		case err != nil:
			return err
		case s.cfg.NoCompactor:
			if ckpt {
				return s.maintain(false)
			}
		case ckpt || clean:
			select {
			case s.kickC <- struct{}{}:
			default:
			}
		}
		return nil
	}
}

// appendLocked appends one record to the active segment and publishes
// it. user distinguishes an acknowledged caller write from a cleaner
// copy: only the former counts in Stats.Appends. needSeg reports
// that the active segment is full and no spare is ready — nothing was
// written; the caller drops the lock, runs prepareSpare and retries.
func (s *LogStore) appendLocked(file uint64, off int64, data []byte, user bool) (needSeg bool, err error) {
	if s.active.size >= s.segBytes {
		if s.spare == nil {
			return true, nil
		}
		s.rollLocked()
	}
	s.enc = appendRecordHeader(s.enc[:0], s.active.seed, record{kind: recKindWrite, gen: s.gen, file: file, off: off, data: data})
	frameLen := len(s.enc) + len(data)
	n := frameLen // bytes of the frame that reach the log
	if s.crashAfter > 0 {
		if s.crashAfter--; s.crashAfter == 0 {
			// The simulated kill lands mid-pwrite: a prefix of the frame
			// reaches the log, the caller never gets its ack, and the
			// store is dead until the next Open truncates the tear.
			n = min(max(int(float64(frameLen)*s.crashFrac), 0), frameLen)
			s.crashed = true
		}
	}
	// The frame is the header then the data, written where they lie in
	// it: the data goes to the file straight from the caller's buffer.
	at := s.active.size
	for _, part := range [2][]byte{s.enc, data} {
		part = part[:min(len(part), n)]
		if len(part) == 0 {
			break
		}
		//lint:allow lockio the log append is the critical section: append order is replay order
		if _, err := s.active.f.WriteAt(part, at); err != nil {
			return false, err
		}
		at += int64(len(part))
		n -= len(part)
	}
	if s.crashed {
		return false, ErrCrashed
	}
	s.applyLocked(file, extent.Extent{
		Off: off, N: int64(len(data)),
		Seg: s.active.seq, Pos: s.active.size + recOverhead, Gen: s.gen,
	})
	s.active.size += int64(frameLen)
	s.frameBytes += int64(frameLen)
	s.sinceCkpt += int64(frameLen)
	s.st.appendedBytes += int64(len(data))
	if user {
		s.st.appends.Inc()
	} else {
		s.st.copiedBytes += int64(len(data))
	}
	s.setByteGauges()
	return false, nil
}

// prepareSpare makes the next segment ready outside mu, so the roll
// itself (appendLocked) is a pointer swap: a free file when there is
// one (reuseSegment), else a new one. It is single-flight — claimed
// under mu, the file work done outside it — because two preparers
// renaming free files onto one path would leave the winner appending to
// an orphaned inode: a caller that finds a preparation in flight waits
// for it and returns, and retries its append like any other.
func (s *LogStore) prepareSpare() error {
	s.mu.Lock()
	if s.spare != nil || s.deadLocked() != nil {
		s.mu.Unlock()
		return nil
	}
	if wait := s.preparing; wait != nil {
		s.mu.Unlock()
		<-wait
		return nil
	}
	done := make(chan struct{})
	s.preparing = done
	seq := s.nextSeq
	var old *segment
	if n := len(s.free); n > 0 {
		old, s.free = s.free[n-1], s.free[:n-1]
	}
	s.mu.Unlock()
	var f *os.File
	var err error
	if old != nil {
		f, err = reuseSegment(s.dir, old, seq)
	} else {
		f, err = createSegment(s.dir, seq)
	}
	s.mu.Lock()
	s.preparing = nil
	close(done)
	won := err == nil && s.deadLocked() == nil
	if won {
		s.spare = newSegment(seq, f, segHeaderLen)
		s.spare.reused = old != nil
		s.nextSeq++
		if old != nil {
			s.st.recycledSegments.Inc()
		}
	}
	s.mu.Unlock()
	if err == nil && !won {
		return f.Close()
	}
	return err
}

// readOp is one pread a resolved read still owes: n bytes at pos of a
// pinned segment into the caller's buffer at dst.
type readOp struct {
	seg         *segment
	pos, n, dst int64
}

// ReadAt implements pfsnet.ObjectStore with sparse semantics: ranges
// no record ever wrote read as zeros. The extents are resolved (and
// their segments pinned) under the shared lock; the preads run outside
// it, so a read never holds up an append and sees the store as of the
// instant it resolved.
func (s *LogStore) ReadAt(file uint64, off int64, p []byte) error {
	if off < 0 {
		return fmt.Errorf("logstore: negative offset %d", off)
	}
	var few [4]readOp
	s.mu.RLock()
	if err := s.deadLocked(); err != nil {
		s.mu.RUnlock()
		return err
	}
	ops := s.resolveLocked(few[:0], file, off, int64(len(p)))
	s.mu.RUnlock()
	return readOps(ops, p)
}

// resolveLocked appends to ops the preads that fill [off, off+n) of
// file, in ascending buffer order, pinning each one's segment (mu held
// at least shared).
func (s *LogStore) resolveLocked(ops []readOp, file uint64, off, n int64) []readOp {
	o := s.objects[file]
	if o == nil {
		return ops
	}
	o.ext.Each(off, n, func(e extent.Extent, dst int64) {
		seg := s.segs[e.Seg]
		seg.pins.Add(1)
		ops = append(ops, readOp{seg: seg, pos: e.Pos, n: e.N, dst: dst})
	})
	return ops
}

// readOps runs resolved preads into p, zero-fills the gaps between and
// after them (the ranges no record covers), and releases the pins.
func readOps(ops []readOp, p []byte) error {
	var err error
	var done int64
	for _, op := range ops {
		clear(p[done:op.dst])
		if err == nil {
			_, err = op.seg.f.ReadAt(p[op.dst:op.dst+op.n], op.pos)
		}
		op.seg.pins.Done()
		done = op.dst + op.n
	}
	clear(p[done:])
	return err
}

// Size implements pfsnet.ObjectStore: the logical object length (the
// furthest byte any write reached), 0 for objects never written.
func (s *LogStore) Size(file uint64) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.deadLocked(); err != nil {
		return 0, err
	}
	if o := s.objects[file]; o != nil {
		return o.size, nil
	}
	return 0, nil
}

// Close stops maintenance, makes the log durable (fsync), installs a
// final checkpoint, and closes the segment files. After a simulated
// crash Close only releases handles: nothing more reaches the disk,
// exactly like the process it models. Idempotent.
func (s *LogStore) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.wg.Wait()
		s.maint <- struct{}{} // waits out a Compact in flight
		defer func() { <-s.maint }()
		s.mu.RLock()
		flush := !s.crashed
		s.mu.RUnlock()
		if flush {
			if err := s.syncLog(0); err != nil {
				s.closeErr = err
			}
			if err := s.checkpoint(nil); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if err := s.closeSegments(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// closeSegments marks the store closed and closes every segment handle
// in sequence order (so which close error wins is deterministic), each
// once the reads pinning it have drained. Free files are closed and,
// unless a simulated kill left the store for dead, deleted; and then a
// segment that reused a retired file is first truncated to its own
// length — with the store closed no append can race that — so the next
// Open meets no earlier segment's records.
func (s *LogStore) closeSegments() error {
	s.mu.Lock()
	s.closed = true
	free, live := s.free, !s.crashed
	s.free = nil
	segs := make([]*segment, 0, len(s.segs)+1)
	for _, seq := range sortedKeys(s.segs) {
		segs = append(segs, s.segs[seq])
	}
	if s.spare != nil {
		segs = append(segs, s.spare)
	}
	clear(s.segs)
	s.spare = nil
	s.mu.Unlock()
	var first error
	for _, seg := range segs {
		seg.pins.Wait()
		if live && seg.reused {
			if err := seg.f.Truncate(seg.size); err != nil && first == nil {
				first = err
			}
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, v := range free {
		v.f.Close()
		if live {
			os.Remove(freePath(s.dir, v.seq))
		}
	}
	return first
}

// CrashAppend arms a simulated process kill: the n-th subsequent
// record append (1-based, cleaner copies included) writes only the
// first frac (0..1) of its on-disk frame and the store latches dead —
// every later operation returns ErrCrashed, and Close neither syncs
// nor checkpoints. The next Open replays the log and truncates the
// torn frame, exactly as after a real SIGKILL between two pwrites. The
// recovery harness (cmd/logstore-chaos) drives its
// kill-at-every-Kth-op loop with this.
func (s *LogStore) CrashAppend(n int64, frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashAfter = n
	s.crashFrac = frac
}

// Crashed reports whether the simulated kill has fired.
func (s *LogStore) Crashed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashed
}

// Generation returns the store generation stamped on new records.
func (s *LogStore) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Stats returns a snapshot of store counters.
func (s *LogStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Appends:          s.st.appends.Value(),
		AppendedBytes:    s.st.appendedBytes,
		LogBytes:         s.frameBytes,
		LiveBytes:        s.liveBytes,
		Checkpoints:      s.st.checkpoints.Value(),
		Replays:          s.st.replays.Value(),
		ReplayedRecords:  s.st.replayedRecords.Value(),
		TruncatedTails:   s.st.truncatedTails.Value(),
		BadGenerations:   s.st.badGenerations.Value(),
		BadCheckpoints:   s.st.badCheckpoints.Value(),
		CompactionRuns:   s.st.compactionRuns.Value(),
		CleanedSegments:  s.st.cleanedSegments,
		CopiedBytes:      s.st.copiedBytes,
		Rolls:            s.st.rolls,
		RecycledSegments: s.st.recycledSegments.Value(),
		Generation:       s.gen,
		Crashed:          s.crashed,
	}
}

// setByteGauges publishes the log/live byte gauges (mu held).
func (s *LogStore) setByteGauges() {
	s.st.logBytes.Set(s.frameBytes)
	s.st.liveBytes.Set(s.liveBytes)
}
