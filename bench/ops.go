package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
)

const (
	simEval = "sim-eval"
	// callers is the closed loop's width: every caller sends its next
	// request only after the previous one completed. Two is this box's
	// core count and stays two on bigger hosts, so runs compare.
	callers = 2
	// The thresholds below which the client flags a sub-request as a
	// fragment, or a whole request as small random (20 KB in the paper).
	fragmentThreshold = 20 << 10
	randomThreshold   = 20 << 10
	// payloadPool is how many distinct write payload positions exist;
	// every write sends a window of a seeded random pool.
	payloadPool = 8 << 20
	// digestOps is how many requests of each caller's stream the
	// op-stream digest covers.
	digestOps = 4096
)

// liveSpec is one live workload: fixed-size requests at random
// multiples of slot, a fixed share of them writes. Why each exists is
// in bench/README.md and in BENCHMARK.json.
type liveSpec struct {
	req      int64 // request size
	slot     int64 // offsets are multiples of this; slots never overlap
	writePct int
	// tracedOpsPerSec sizes the traced legs, which run a fixed number of
	// requests (this × --seconds) so that their counts repeat exactly.
	// Chosen so that one caller needs about a quarter of the window.
	tracedOpsPerSec int
}

var liveSpecs = map[string]liveSpec{
	"live-unaligned":     {65 << 10, 65 << 10, 50, 1500},
	"live-aligned-large": {4 << 20, 4 << 20, 50, 50},
	"live-small-read":    {4 << 10, 4 << 10, 0, 6000},
}

// op is one generated request.
type op struct {
	off     int64
	write   bool
	payload int64 // offset of the write's bytes in the payload pool
}

// opGen is one caller's request stream. Caller i only ever touches the
// slots congruent to i modulo callers, so no two callers write the same
// byte and a shadow copy of the file stays exact under concurrency.
type opGen struct {
	rng    *sim.RNG
	spec   liveSpec
	caller int64
	own    int64 // slots this caller owns
}

func newOpGen(spec liveSpec, fileBytes int64, seed uint64, caller int) *opGen {
	slots := fileBytes / spec.slot
	own := slots / callers
	if int64(caller) < slots%callers {
		own++
	}
	return &opGen{
		rng:    laneRNG(seed, caller),
		spec:   spec,
		caller: int64(caller),
		own:    own,
	}
}

func (g *opGen) next() op {
	slot := g.rng.Int63n(g.own)*callers + g.caller
	o := op{off: slot * g.spec.slot}
	if g.rng.Intn(100) < g.spec.writePct {
		o.write = true
		o.payload = g.rng.Int63n(payloadPool)
	}
	return o
}

// laneRNG returns caller lane's own stream of seed. The streams are
// forked off a generator seeded with seed, not seeded with a function of
// (seed, lane) directly: sim.RNG is SplitMix64, whose streams for
// neighbouring seeds are the same stream one step apart.
func laneRNG(seed uint64, lane int) *sim.RNG {
	root := sim.NewRNG(seed)
	for i := 0; i < lane; i++ {
		root.Fork()
	}
	return root.Fork()
}

// opDigest identifies the request streams a (spec, file size, seed)
// generates: same seed, same digest; another seed, another digest.
func opDigest(spec liveSpec, fileBytes int64, seed uint64) string {
	h := fnv.New64a()
	var b [17]byte
	for c := 0; c < callers; c++ {
		g := newOpGen(spec, fileBytes, seed, c)
		for i := 0; i < digestOps; i++ {
			o := g.next()
			binary.LittleEndian.PutUint64(b[0:], uint64(o.off))
			binary.LittleEndian.PutUint64(b[8:], uint64(o.payload))
			b[16] = 0
			if o.write {
				b[16] = 1
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fillRandom fills p with the xorshift64* stream of seed: the file's
// initial content and the payload pool come from here.
func fillRandom(p []byte, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 | 1
	i := 0
	for ; i+8 <= len(p); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(p[i:], x*0x2545f4914f6cdd1d)
	}
	for ; i < len(p); i++ {
		p[i] = byte(x >> (8 * (i % 8)))
	}
}
