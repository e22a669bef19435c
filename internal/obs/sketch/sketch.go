// Package sketch provides a windowed decaying quantile estimator: a
// ring of fixed-bucket stats.Hist windows rotated on a wall-clock
// schedule, with quantiles computed by merging the live windows on
// read. Old observations age out as their window is recycled, so the
// estimate tracks "how slow is this server *now*", not cumulatively
// since boot.
//
// The pfsnet client keeps one Sketch per (server, op class), read
// through its pfsnet.client.server.<addr>.<class>.{p50,p95,p99}
// gauges. Recording is a mutex plus a histogram bucket increment;
// reading merges windows*buckets int64 counts into a scratch histogram,
// so reads are cheap enough for scrape-time gauges but recording stays
// the only operation on the request hot path.
package sketch

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Defaults chosen for request latencies in milliseconds: 8 windows of
// 2 s each give a ~16 s sliding horizon with 2 s granularity — long
// enough to smooth one slow scrape, short enough that a recovered
// server sheds its "slow" label within seconds.
const (
	DefaultWindows = 8
	DefaultWidth   = 2 * time.Second
)

// Sketch is a sliding-window quantile estimator. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Sketch struct {
	mu      sync.Mutex
	windows []*stats.Hist // ring of per-window histograms
	start   time.Time     // start instant of the current window
	cur     int           // ring index of the current window
	width   time.Duration
	now     func() time.Time
	scratch *stats.Hist // merge-on-read target, reused across reads
}

// New returns a sketch over `windows` ring slots of `width` each,
// using the standard latency bucket layout (1 µs .. 100 s at 9 buckets
// per decade, in milliseconds). Non-positive arguments fall back to
// the defaults.
func New(windows int, width time.Duration) *Sketch {
	return NewAt(windows, width, time.Now)
}

// NewAt is New with an injectable clock, for tests.
func NewAt(windows int, width time.Duration, now func() time.Time) *Sketch {
	if windows <= 0 {
		windows = DefaultWindows
	}
	if width <= 0 {
		width = DefaultWidth
	}
	bounds := stats.ExpBounds(1e-3, 1e5, 9)
	s := &Sketch{
		windows: make([]*stats.Hist, windows),
		width:   width,
		now:     now,
		scratch: stats.NewHist(bounds),
	}
	for i := range s.windows {
		s.windows[i] = stats.NewHist(bounds)
	}
	s.start = now()
	return s
}

// rotate advances the ring so the current window covers t, recycling
// every window that expired since the last call. Caller holds s.mu.
func (s *Sketch) rotate(t time.Time) {
	elapsed := t.Sub(s.start)
	if elapsed < s.width {
		return
	}
	steps := int(elapsed / s.width)
	if steps >= len(s.windows) {
		// Idle longer than the whole horizon: every window is stale.
		for _, w := range s.windows {
			w.Reset()
		}
		s.cur = 0
	} else {
		for i := 0; i < steps; i++ {
			s.cur = (s.cur + 1) % len(s.windows)
			s.windows[s.cur].Reset()
		}
	}
	s.start = s.start.Add(time.Duration(steps) * s.width)
}

// Observe records one value (milliseconds by convention) into the
// current window.
func (s *Sketch) Observe(v float64) {
	s.mu.Lock()
	s.rotate(s.now())
	s.windows[s.cur].Observe(v)
	s.mu.Unlock()
}

// Quantile estimates the q-th quantile (0..1) over the sliding
// horizon. It returns 0 when no observations are live.
func (s *Sketch) Quantile(q float64) float64 {
	return s.Quantiles(q)[0]
}

// Quantiles estimates several quantiles from a single merge pass —
// the cheap way to scrape p50/p95/p99 together.
func (s *Sketch) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rotate(s.now())
	s.scratch.Reset()
	for _, w := range s.windows {
		// Windows share one bucket layout by construction, so Merge
		// cannot fail; a non-nil error here is a program bug.
		if err := s.scratch.Merge(w); err != nil {
			panic(err)
		}
	}
	for i, q := range qs {
		out[i] = s.scratch.Quantile(q)
	}
	return out
}

// Count returns the number of live observations across the horizon.
func (s *Sketch) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rotate(s.now())
	var n int64
	for _, w := range s.windows {
		n += w.Count()
	}
	return n
}
