package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/pfsnet"
	"repro/internal/stats"
	"repro/internal/stripe"
)

// recorder is the bench's own tracing: spans are recorded from this
// package's files, around the calls into each layer, kept in memory,
// and written out (obs span-file format) when the run ends. The traced
// legs run one caller, so the request in flight is the cause of every
// store call made meanwhile; cur names it.
type recorder struct {
	tr  *obs.XTracer
	cur atomic.Uint64
}

func newRecorder() *recorder {
	return &recorder{tr: obs.NewXTracer("bench", 8<<20)}
}

// begin opens a root span and makes it the current cause; a nil
// recorder (tracing off) returns 0 and end ignores it.
func (r *recorder) begin() uint64 {
	if r == nil {
		return 0
	}
	id := r.tr.NewID()
	r.cur.Store(id)
	return id
}

func (r *recorder) end(id uint64, name string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.cur.Store(0)
	r.tr.Span(id, id, 0, name, "client", start, dur)
}

// tracedStore wraps a data server's object store and records one span
// per call, a child of the request in flight.
type tracedStore struct {
	pfsnet.ObjectStore
	rec   *recorder
	scope string
}

func (s *tracedStore) WriteAt(file uint64, off int64, data []byte) error {
	t0 := time.Now()
	err := s.ObjectStore.WriteAt(file, off, data)
	s.child("store.write", t0)
	return err
}

func (s *tracedStore) ReadAt(file uint64, off int64, p []byte) error {
	t0 := time.Now()
	err := s.ObjectStore.ReadAt(file, off, p)
	s.child("store.read", t0)
	return err
}

func (s *tracedStore) child(name string, t0 time.Time) {
	// Store calls outside any request (the preload) have no parent and
	// are not recorded.
	if parent := s.rec.cur.Load(); parent != 0 {
		s.rec.tr.Span(parent, s.rec.tr.NewID(), parent, name, s.scope, t0, time.Since(t0))
	}
}

// traceMode selects what an in-process leg arms.
type traceMode int

const (
	plain  traceMode = iota // nothing: the baseline the two overheads compare with
	spans                   // the bench's recorder: root spans and wrapped stores
	xtrace                  // the program's own tracing: Client.Tracer and ServerConfig.Tracer
)

// inprocCluster is the traced legs' system under test: the same
// servers, assembled in this process so the bench can wrap each log
// store and read the servers' and stores' counters.
type inprocCluster struct {
	meta    *pfsnet.MetaServer
	servers []*pfsnet.DataServer
	stores  []*logstore.LogStore
	dirs    []string
}

func startInproc(dir string, mode traceMode, rec *recorder) (_ *inprocCluster, err error) {
	c := &inprocCluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var addrs []string
	for i := 0; i < nServers; i++ {
		name := fmt.Sprintf("srv%d", i)
		sdir := filepath.Join(dir, name)
		ls, err := logstore.Open(sdir, logstore.Config{})
		if err != nil {
			return nil, err
		}
		c.stores = append(c.stores, ls)
		c.dirs = append(c.dirs, sdir)
		cfg := pfsnet.ServerConfig{Bridge: true, Store: ls}
		switch mode {
		case spans:
			cfg.Store = &tracedStore{ObjectStore: ls, rec: rec, scope: name}
		case xtrace:
			cfg.Tracer = obs.NewXTracer(name, 0)
		}
		ds, err := pfsnet.NewDataServerConfig("127.0.0.1:0", cfg)
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, ds)
		addrs = append(addrs, ds.Addr())
	}
	c.meta, err = pfsnet.NewMetaServer("127.0.0.1:0", stripeUnit, addrs)
	return c, err
}

// close stops the servers; a data server closes its store. A store
// whose server never started is closed here.
func (c *inprocCluster) close() error {
	var first error
	if c.meta != nil {
		first = c.meta.Close()
	}
	for i, ls := range c.stores {
		var err error
		if i < len(c.servers) {
			err = c.servers[i].Close()
		} else {
			err = ls.Close()
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// inprocResult is one in-process leg plus the counters read off the
// servers and stores before they closed.
type inprocResult struct {
	legResult
	verified            bool
	layout              stripe.Layout // as the metadata server handed it out
	mallocs, allocBytes uint64        // heap allocation over the leg, whole process
	data                pfsnet.DataStats
	store               logstore.Stats // summed over the four stores; counters cover the leg only
	reopenMS            float64        // mean time to Open one store again after the clean close
	replayed            int64
}

// inprocLeg runs ops requests from one caller against a fresh
// in-process cluster under dir, armed per mode.
func (e *env) inprocLeg(ctx context.Context, spec liveSpec, dir string, mode traceMode, rec *recorder, ops int, shadow, pool []byte) (res inprocResult, err error) {
	cl, err := startInproc(dir, mode, rec)
	if err != nil {
		return res, err
	}
	defer func() {
		if cl != nil {
			cl.close()
		}
	}()
	sess, err := openSession(cl.meta.Addr(), shadow, pool, func(c *pfsnet.Client) {
		if mode == xtrace {
			c.Tracer = obs.NewXTracer("client", 0)
		}
	})
	if err != nil {
		return res, err
	}
	defer sess.client.Close()
	res.layout = sess.file.Layout()
	var before logstore.Stats // the preload's share of the counters
	for _, ls := range cl.stores {
		s := ls.Stats()
		before.AppendedBytes += s.AppendedBytes
		before.Checkpoints += s.Checkpoints
		before.CompactionRuns += s.CompactionRuns
	}
	if mode != spans {
		rec = nil
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res.legResult, err = sess.runLeg(ctx, legOpts{spec: spec, seed: e.cfg.seed, callers: 1, ops: ops, rec: rec})
	if err != nil {
		return res, err
	}
	runtime.ReadMemStats(&m1)
	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if res.verified, err = sess.verify(); err != nil {
		return res, err
	}
	res.verified = res.verified && res.mismatched == 0

	for i, ds := range cl.servers {
		d := ds.Stats()
		res.data.FragmentWrites += d.FragmentWrites
		res.data.FragmentReads += d.FragmentReads
		res.data.LogBytes += d.LogBytes
		res.data.FlushedBytes += d.FlushedBytes
		s := cl.stores[i].Stats()
		res.store.AppendedBytes += s.AppendedBytes
		res.store.LogBytes += s.LogBytes
		res.store.LiveBytes += s.LiveBytes
		res.store.Checkpoints += s.Checkpoints
		res.store.CompactionRuns += s.CompactionRuns
	}
	res.store.AppendedBytes -= before.AppendedBytes
	res.store.Checkpoints -= before.Checkpoints
	res.store.CompactionRuns -= before.CompactionRuns
	dirs := cl.dirs
	err = cl.close()
	cl = nil
	if err != nil {
		return res, err
	}
	if mode == spans {
		// What a restarted server pays: open each store again.
		for _, d := range dirs {
			t0 := time.Now()
			ls, err := logstore.Open(d, logstore.Config{})
			if err != nil {
				return res, fmt.Errorf("reopen %s: %w", d, err)
			}
			res.reopenMS += float64(time.Since(t0)) / float64(time.Millisecond) / float64(len(dirs))
			res.replayed += ls.Stats().ReplayedRecords
			if err := ls.Close(); err != nil {
				return res, err
			}
		}
	}
	return res, os.RemoveAll(dir)
}

// spanBreakdown splits the recorded request spans into the time their
// store children cover and the rest (the request's self time: client,
// wire, server dispatch, bridge log). covered + self = the span, so the
// layers sum to the request by construction.
type spanBreakdown struct {
	ops            int
	total, covered time.Duration // summed over requests
	storeBusy      time.Duration // sum of store span durations (servers overlap)
	storeCalls     int
}

func breakDown(evs []obs.XEvent) spanBreakdown {
	kids := make(map[uint64][]obs.XEvent)
	for _, ev := range evs {
		if ev.Parent != 0 {
			kids[ev.Parent] = append(kids[ev.Parent], ev)
		}
	}
	var b spanBreakdown
	for _, ev := range evs {
		if ev.Name != "client.op" {
			continue
		}
		b.ops++
		b.total += time.Duration(ev.Dur)
		// Union of the children's intervals, clipped to the request;
		// Events returns them sorted by start.
		at, end := ev.Start, ev.Start+ev.Dur
		for _, k := range kids[ev.Span] {
			b.storeCalls++
			b.storeBusy += time.Duration(k.Dur)
			if lo, hi := max(k.Start, at), min(k.Start+k.Dur, end); hi > lo {
				b.covered += time.Duration(hi - lo)
				at = hi
			}
		}
	}
	return b
}

// stripeShadow decomposes the leg's request stream once more, outside
// the leg, for the exact per-request counts and the decomposition's
// own cost.
func stripeShadow(spec liveSpec, layout stripe.Layout, fileBytes int64, seed uint64, ops int) (nsPerOp, subs, frags, wsMB float64) {
	gen := newOpGen(spec, fileBytes, seed, 0)
	reqs := make([]op, ops)
	for i := range reqs {
		reqs[i] = gen.next()
	}
	var nSubs, nFrags int
	fragBytes := make(map[int64]int64) // file offset of a fragment → its length
	t0 := time.Now()
	for _, r := range reqs {
		for _, s := range layout.DecomposeFlagged(r.off, spec.req, fragmentThreshold) {
			nSubs++
			if s.Fragment {
				nFrags++
				fragBytes[s.FileOff] = s.Length
			}
		}
	}
	elapsed := time.Since(t0)
	var ws int64
	for _, n := range fragBytes {
		ws += n
	}
	n := float64(max(ops, 1))
	return float64(elapsed.Nanoseconds()) / n, float64(nSubs) / n, float64(nFrags) / n, float64(ws) / mb
}

// liveTraced is the --trace 1 run of a live workload. Four legs:
//
//	A  multi-process, as end-to-end but half the window: process CPU and the far tail
//	B′ in-process, nothing armed: allocation counts, and the baseline for the overheads
//	B  in-process, bench spans armed: the per-layer breakdown and every counter
//	B″ in-process, the program's own tracer armed: what observability costs
//
// The in-process legs run a fixed number of requests from one caller,
// so their counts repeat exactly for a seed.
func (e *env) liveTraced(ctx context.Context, spec liveSpec) (*result, error) {
	shadow, pool := e.inputs(spec)
	m := zeroed(perLayer)
	res := &result{correct: true, metrics: m, defs: perLayer}

	a, err := e.procLeg(ctx, spec, filepath.Join(e.work, "legA"), e.cfg.window/2, shadow, pool)
	if err != nil {
		return nil, err
	}
	res.add(a.legResult, a.verified)
	nA := float64(max(a.attempted, 1))
	m["client.cpu_us_per_op"] = us(a.selfCPU) / nA
	m["client.op_p95_us"] = stats.Percentile(a.lat, 95)
	m["client.op_p99_us"] = stats.Percentile(a.lat, 99)
	m["client.op_max_ms"] = stats.Percentile(a.lat, 100) / 1e3
	m["pfsnet.server_cpu_us_per_op"] = us(a.serverCPU) / nA

	ops := max(int(float64(spec.tracedOpsPerSec)*e.cfg.window.Seconds()), 1)
	rec := newRecorder()
	legs := make(map[traceMode]inprocResult)
	for _, mode := range []traceMode{plain, spans, xtrace} {
		leg, err := e.inprocLeg(ctx, spec, filepath.Join(e.work, fmt.Sprintf("legB%d", mode)), mode, rec, ops, shadow, pool)
		if err != nil {
			return nil, err
		}
		res.add(leg.legResult, leg.verified)
		legs[mode] = leg
	}
	n := float64(ops)
	base, b := legs[plain], legs[spans]
	m["pfsnet.allocs_per_op"] = float64(base.mallocs) / n
	m["pfsnet.alloc_bytes_per_op"] = float64(base.allocBytes) / n
	if baseMean := stats.Mean(base.lat); baseMean > 0 {
		m["bench.trace_overhead_pct"] = 100 * (stats.Mean(b.lat) - baseMean) / baseMean
		m["obs.xtrace_overhead_pct"] = 100 * (stats.Mean(legs[xtrace].lat) - baseMean) / baseMean
	}

	bd := breakDown(rec.tr.Events())
	nb := float64(max(bd.ops, 1))
	m["layers.op_mean_us"] = us(bd.total) / nb
	m["logstore.covered_us_per_op"] = us(bd.covered) / nb
	m["pfsnet.self_us_per_op"] = us(bd.total-bd.covered) / nb
	m["logstore.busy_us_per_op"] = us(bd.storeBusy) / nb
	m["logstore.calls_per_op"] = float64(bd.storeCalls) / nb

	m["pfsnet.fragment_writes"] = float64(b.data.FragmentWrites)
	m["pfsnet.fragment_reads"] = float64(b.data.FragmentReads)
	m["pfsnet.bridge_log_mb"] = float64(b.data.LogBytes) / mb
	m["pfsnet.flush_mb"] = float64(b.data.FlushedBytes) / mb
	m["pfsnet.flush_s"] = b.flushDur.Seconds()
	if b.wbytes > 0 {
		m["logstore.write_amp"] = float64(b.store.AppendedBytes) / float64(b.wbytes)
	}
	m["logstore.space_amp"] = float64(b.store.LogBytes) / float64(max(b.store.LiveBytes, 1))
	m["logstore.checkpoints"] = float64(b.store.Checkpoints)
	m["logstore.compactions"] = float64(b.store.CompactionRuns)
	m["logstore.reopen_ms"] = b.reopenMS
	m["logstore.replayed_records"] = float64(b.replayed)

	m["stripe.decompose_ns_per_op"], m["stripe.subs_per_op"], m["stripe.fragments_per_op"], m["stripe.fragment_ws_mb"] =
		stripeShadow(spec, b.layout, e.sz.fileBytes, e.cfg.seed, ops)

	res.notes = []string{
		fmt.Sprintf("op-stream digest %s", opDigest(spec, e.sz.fileBytes, e.cfg.seed)),
		fmt.Sprintf("leg A: %d requests from %d callers over %.2fs; legs B′/B/B″: %d requests from 1 caller each", a.attempted, callers, a.elapsed.Seconds(), ops),
		fmt.Sprintf("%d spans recorded (%d dropped); store share of the mean request %.1f%%",
			rec.tr.Len(), rec.tr.Dropped(), 100*float64(bd.covered)/float64(max(bd.total, 1))),
	}
	if rec.tr.Dropped() > 0 {
		return nil, fmt.Errorf("span buffer overflowed: %d spans dropped", rec.tr.Dropped())
	}
	if e.cfg.spansOut != "" {
		if err := writeSpans(rec.tr, e.cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// add folds one leg's request counts and output check into the result.
func (r *result) add(leg legResult, verified bool) {
	r.attempted += leg.attempted
	r.failed += leg.failed
	r.correct = r.correct && verified
}

func writeSpans(tr *obs.XTracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteSpans(f); err != nil {
		f.Close()
		return fmt.Errorf("spans %s: %w", path, err)
	}
	return f.Close()
}
