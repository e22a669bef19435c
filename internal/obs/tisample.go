package obs

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/vtime"
)

// TiSnapshot is the cumulative iBridge decision state captured with each
// T_i sample: how many positive-return offloads had the Eq. (3)
// magnification boost applied versus not, and the SSD cache behaviour.
type TiSnapshot struct {
	BoostedOffloads int64
	PlainOffloads   int64
	Hits            int64
	Misses          int64
	Evictions       int64
}

// TiSample is one observation of the broadcast T vector.
type TiSample struct {
	At   vtime.Time
	T    []float64 // seconds, indexed by server id
	Snap TiSnapshot
}

// maxTiSamples bounds the retained series per sampler so long runs (or
// wide experiment grids sharing one Set) stay bounded in memory.
const maxTiSamples = 4096

// TiSampler collects the T_i time series of one cluster run, hooked
// into the metadata-server broadcast tick via core.Exchange.
type TiSampler struct {
	mu      sync.Mutex
	label   string
	every   vtime.Duration
	last    vtime.Time
	started bool
	samples []TiSample
	dropped int64
}

// tiList owns the samplers of a Set.
type tiList struct {
	mu       sync.Mutex
	samplers []*TiSampler
}

// TiSampler returns a new sampler labelled label (typically the run id
// plus the cluster mode), registered with the Set, or nil when s is nil
// so disabled runs wire a nil sink.
func (s *Set) TiSampler(label string) *TiSampler {
	if s == nil {
		return nil
	}
	ts := &TiSampler{label: label, every: s.cfg.SampleEvery}
	s.ti.mu.Lock()
	s.ti.samplers = append(s.ti.samplers, ts)
	s.ti.mu.Unlock()
	return ts
}

// Sample records the broadcast T vector at virtual time now, subject to
// the sampler's rate limit. The view slice is copied; snap carries the
// cumulative decision counters at the same instant.
func (ts *TiSampler) Sample(now vtime.Time, view []float64, snap TiSnapshot) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.started && ts.every > 0 && now.Sub(ts.last) < ts.every {
		return
	}
	ts.started = true
	ts.last = now
	if len(ts.samples) >= maxTiSamples {
		ts.dropped++
		return
	}
	t := make([]float64, len(view))
	copy(t, view)
	ts.samples = append(ts.samples, TiSample{At: now, T: t, Snap: snap})
}

// Samples returns the retained series.
func (ts *TiSampler) Samples() []TiSample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TiSample, len(ts.samples))
	copy(out, ts.samples)
	return out
}

// summary formats one line: sample count and the final vector's range.
func (ts *TiSampler) summary() string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.samples) == 0 {
		return fmt.Sprintf("ti[%s]: no samples", ts.label)
	}
	lastSample := ts.samples[len(ts.samples)-1]
	min, max, sum := lastSample.T[0], lastSample.T[0], 0.0
	for _, v := range lastSample.T {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	sn := lastSample.Snap
	return fmt.Sprintf("ti[%s]: %d samples; last T min/mean/max = %.3f/%.3f/%.3f ms; offloads boosted/plain = %d/%d; hits/misses/evictions = %d/%d/%d",
		ts.label, len(ts.samples), min*1e3, sum/float64(len(lastSample.T))*1e3, max*1e3,
		sn.BoostedOffloads, sn.PlainOffloads, sn.Hits, sn.Misses, sn.Evictions)
}

// WriteSeries emits the full retained series as text: one line per
// sample with the T vector in milliseconds and the decision counters.
func (ts *TiSampler) WriteSeries(w io.Writer) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	fmt.Fprintf(w, "-- T_i series [%s] (%d samples) --\n", ts.label, len(ts.samples))
	for _, s := range ts.samples {
		fmt.Fprintf(w, "%12v T(ms)=[", s.At)
		for i, v := range s.T {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%.3f", v*1e3)
		}
		fmt.Fprintf(w, "] boosted=%d plain=%d hits=%d misses=%d evictions=%d\n",
			s.Snap.BoostedOffloads, s.Snap.PlainOffloads, s.Snap.Hits, s.Snap.Misses, s.Snap.Evictions)
	}
	if ts.dropped > 0 {
		fmt.Fprintf(w, "... %d samples dropped (series bound)\n", ts.dropped)
	}
}

// render writes one summary line per sampler.
func (l *tiList) render(w io.Writer) {
	l.mu.Lock()
	samplers := make([]*TiSampler, len(l.samplers))
	copy(samplers, l.samplers)
	l.mu.Unlock()
	if len(samplers) == 0 {
		return
	}
	fmt.Fprintf(w, "-- T_i telemetry (%d runs) --\n", len(samplers))
	for _, ts := range samplers {
		fmt.Fprintln(w, ts.summary())
	}
}

// WriteTiSeries emits every sampler's full series (the single-run
// ibridge-sim view; for wide bench grids prefer WriteMetrics's
// one-line-per-run summaries).
func (s *Set) WriteTiSeries(w io.Writer) {
	if s == nil {
		return
	}
	s.ti.mu.Lock()
	samplers := make([]*TiSampler, len(s.ti.samplers))
	copy(samplers, s.ti.samplers)
	s.ti.mu.Unlock()
	for _, ts := range samplers {
		ts.WriteSeries(w)
	}
}
