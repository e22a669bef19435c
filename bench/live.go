package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/pfsnet"
	"repro/internal/stats"
)

// preloadChunk is the write size that fills the file before measuring.
const preloadChunk = 4 << 20

// session is a client with a created, preloaded file and the exact
// shadow copy every read and the final read-back are compared with.
type session struct {
	client *pfsnet.Client
	file   *pfsnet.File
	shadow []byte
	pool   []byte // write payloads are windows of this
}

// openSession connects one client (one connection per data server, the
// fewest a 4-way stripe allows), creates the file and preloads it with
// shadow's content. tune, if set, adjusts the client before first use.
func openSession(meta string, shadow, pool []byte, tune func(*pfsnet.Client)) (*session, error) {
	c := pfsnet.NewIBridgeClient(meta, fragmentThreshold, randomThreshold)
	if tune != nil {
		tune(c)
	}
	f, err := c.Create("bench", int64(len(shadow)))
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("create: %w", err)
	}
	for off := 0; off < len(shadow); off += preloadChunk {
		end := min(off+preloadChunk, len(shadow))
		if err := c.WriteAt(f, int64(off), shadow[off:end]); err != nil {
			c.Close()
			return nil, fmt.Errorf("preload at %d: %w", off, err)
		}
	}
	return &session{client: c, file: f, shadow: shadow, pool: pool}, nil
}

// legOpts sizes one measured leg: either window (issue requests until
// it has passed) or ops (each caller issues exactly that many).
type legOpts struct {
	spec    liveSpec
	seed    uint64
	callers int
	window  time.Duration
	ops     int
	rec     *recorder // non-nil: record a root span per request
}

type legResult struct {
	attempted, failed int64
	mismatched        int64         // reads that differed from the shadow copy
	bytes, wbytes     int64         // user bytes moved, and the written part
	lat               []float64     // per-request latency, µs
	elapsed           time.Duration // first request to the end of the final flush
	flushBytes        int64
	flushDur          time.Duration
	selfCPU           time.Duration // this process's CPU over elapsed
}

// runLeg drives the closed loop and ends with Client.Flush(nil): the
// measured window includes writing the fragment logs back, as the
// paper charges write-back to the run.
func (s *session) runLeg(ctx context.Context, o legOpts) (legResult, error) {
	parts := make([]legResult, o.callers)
	cpu0 := selfCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < o.callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = s.caller(ctx, o, i, start)
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return legResult{}, ctx.Err()
	}
	var res legResult
	for _, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		res.mismatched += p.mismatched
		res.bytes += p.bytes
		res.wbytes += p.wbytes
		res.lat = append(res.lat, p.lat...)
	}

	t0 := time.Now()
	id := o.rec.begin()
	n, err := s.client.Flush(nil)
	res.flushDur = time.Since(t0)
	o.rec.end(id, "client.flush", t0, res.flushDur)
	if err != nil {
		return res, fmt.Errorf("flush: %w", err)
	}
	res.flushBytes = n
	res.elapsed = time.Since(start)
	res.selfCPU = selfCPU() - cpu0
	return res, nil
}

func (s *session) caller(ctx context.Context, o legOpts, idx int, start time.Time) legResult {
	var res legResult
	gen := newOpGen(o.spec, int64(len(s.shadow)), o.seed, idx)
	buf := make([]byte, o.spec.req)
	for n := 0; ctx.Err() == nil; n++ {
		if o.ops > 0 && n >= o.ops || o.ops == 0 && time.Since(start) >= o.window {
			break
		}
		op := gen.next()
		want := s.shadow[op.off : op.off+o.spec.req]
		var err error
		id := o.rec.begin()
		t0 := time.Now()
		if op.write {
			err = s.client.WriteAt(s.file, op.off, s.pool[op.payload:op.payload+o.spec.req])
		} else {
			err = s.client.ReadAt(s.file, op.off, buf)
		}
		lat := time.Since(t0)
		o.rec.end(id, "client.op", t0, lat)
		res.attempted++
		if err != nil {
			res.failed++
			if res.failed == 1 {
				fmt.Fprintf(os.Stderr, "bench: caller %d request %d failed: %v\n", idx, n, err)
			}
			continue
		}
		res.lat = append(res.lat, us(lat))
		res.bytes += o.spec.req
		if op.write {
			res.wbytes += o.spec.req
			copy(want, s.pool[op.payload:])
		} else if !bytes.Equal(buf, want) {
			res.mismatched++
		}
	}
	return res
}

// verify reads the whole file back and compares it with the shadow.
func (s *session) verify() (bool, error) {
	buf := make([]byte, preloadChunk)
	for off := 0; off < len(s.shadow); off += preloadChunk {
		end := min(off+preloadChunk, len(s.shadow))
		if err := s.client.ReadAt(s.file, int64(off), buf[:end-off]); err != nil {
			return false, fmt.Errorf("read-back at %d: %w", off, err)
		}
		if !bytes.Equal(buf[:end-off], s.shadow[off:end]) {
			return false, nil
		}
	}
	return true, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuOf(ru)
}

// inputs generates a run's file content and payload pool from the seed.
func (e *env) inputs(spec liveSpec) (shadow, pool []byte) {
	shadow = make([]byte, e.sz.fileBytes)
	fillRandom(shadow, e.cfg.seed)
	pool = make([]byte, payloadPool+spec.req)
	fillRandom(pool, e.cfg.seed+1)
	return shadow, pool
}

// procLegResult is one leg against the multi-process cluster.
type procLegResult struct {
	legResult
	setupS    float64 // process start + create + preload; build excluded
	verified  bool
	usage     []syscall.Rusage // data servers, after a clean shutdown
	serverCPU time.Duration    // data servers' CPU over the leg
}

// procLeg brings the multi-process cluster up under dir, runs one leg
// for window, reads the file back, and shuts the cluster down with
// SIGINT. On any error every process it started is killed.
func (e *env) procLeg(ctx context.Context, spec liveSpec, dir string, window time.Duration, shadow, pool []byte) (res procLegResult, err error) {
	t0 := time.Now()
	cl, err := startProcCluster(ctx, e.bins, dir)
	if err != nil {
		return res, err
	}
	defer func() {
		if cl != nil {
			cl.kill()
		}
	}()
	sess, err := openSession(cl.meta, shadow, pool, nil)
	if err != nil {
		return res, err
	}
	defer sess.client.Close()
	res.setupS = time.Since(t0).Seconds()

	cpu0, err := cl.serverCPU()
	if err != nil {
		return res, err
	}
	res.legResult, err = sess.runLeg(ctx, legOpts{spec: spec, seed: e.cfg.seed, callers: callers, window: window})
	if err != nil {
		return res, err
	}
	cpu1, err := cl.serverCPU()
	if err != nil {
		return res, err
	}
	res.serverCPU = cpu1 - cpu0
	if res.verified, err = sess.verify(); err != nil {
		return res, err
	}
	res.verified = res.verified && res.mismatched == 0
	sess.client.Close()
	res.usage, err = cl.stop()
	cl = nil
	if err != nil {
		return res, err
	}
	return res, os.RemoveAll(dir)
}

// liveEndToEnd is the --trace 0 run of a live workload: set the cluster
// up sz.setups times (setup_s is the median), and measure on the last.
func (e *env) liveEndToEnd(ctx context.Context, spec liveSpec) (*result, error) {
	shadow, pool := e.inputs(spec)
	var setups []float64
	var leg procLegResult
	for i := 0; i < e.sz.setups; i++ {
		window := e.cfg.window
		if i < e.sz.setups-1 {
			window = 0 // set-up, flush, read-back and shutdown only
		}
		var err error
		leg, err = e.procLeg(ctx, spec, filepath.Join(e.work, fmt.Sprintf("setup%d", i)), window, shadow, pool)
		if err != nil {
			return nil, err
		}
		if !leg.verified {
			break
		}
		setups = append(setups, leg.setupS)
	}
	m := zeroed(endToEnd)
	m["setup_s"] = stats.Percentile(setups, 50)
	m["throughput_mbps"] = float64(leg.bytes) / leg.elapsed.Seconds() / mb
	m["op_p50_us"] = stats.Percentile(leg.lat, 50)
	for _, ru := range leg.usage {
		m["peak_rss_mb"] += rssMB(ru)
	}
	return &result{
		correct:   leg.verified,
		attempted: leg.attempted,
		failed:    leg.failed,
		metrics:   m,
		defs:      endToEnd,
		notes: []string{
			fmt.Sprintf("op-stream digest %s", opDigest(spec, e.sz.fileBytes, e.cfg.seed)),
			fmt.Sprintf("closed loop, %d callers, 1 pfs-meta + %d pfs-server -ibridge -store log over loopback TCP, %d KiB unit, %d MiB file",
				callers, nServers, stripeUnit>>10, e.sz.fileBytes>>20),
			"flush policy: the log store's default (fsync at each 4 MiB checkpoint and at close, none per append)",
			fmt.Sprintf("%d latency samples; window %.2fs of which final flush %.3fs (%d bytes written back)",
				len(leg.lat), leg.elapsed.Seconds(), leg.flushDur.Seconds(), leg.flushBytes),
		},
	}, nil
}
