package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// Registry holds named metrics. Components resolve their metrics by name
// exactly once, at construction, and keep the returned pointers; the
// registry's map is never consulted on the hot path. Lookups are
// idempotent, so concurrently built clusters share one aggregate metric
// per name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
		funcs:    make(map[string]func() float64),
	}
}

// Counter is a monotonically increasing metric. Updates are atomic so
// concurrent simulations may share one counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric that also tracks the maximum it has held.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records v as the current value, updating the running maximum.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the last set value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the largest value ever set.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Hist is a concurrency-safe latency histogram in milliseconds, backed
// by stats.Hist (exponential buckets from 1 µs to 100 s).
type Hist struct {
	mu sync.Mutex
	h  *stats.Hist
}

// histBounds covers 1 µs .. 100 s with 9 buckets per decade: better
// than 30% relative quantile resolution over the whole latency range
// the simulated devices produce.
func histBounds() []float64 { return stats.ExpBounds(1e-3, 1e5, 9) }

// Observe records one value in milliseconds.
func (h *Hist) Observe(ms float64) {
	h.mu.Lock()
	h.h.Observe(ms)
	h.mu.Unlock()
}

// ObserveDur records one virtual duration.
func (h *Hist) ObserveDur(d vtime.Duration) { h.Observe(d.Milliseconds()) }

// Snapshot returns a copy of the underlying histogram for reading,
// which later observations do not touch.
func (h *Hist) Snapshot() stats.Hist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Clone()
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Hist(name string) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Hist{h: stats.NewHist(histBounds())}
		r.hists[name] = h
	}
	return h
}

// CounterValues returns every counter's current value keyed by name.
// Chaos tests use it as a reproducibility fingerprint: two runs of the
// same workload under the same fault plan must produce identical maps
// for the deterministic counters (retries, breaker transitions,
// injected faults).
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// RegisterFunc registers a derived metric computed on demand at
// snapshot time (used by cmd/pfs-server to surface live server stats
// through the same registry).
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot returns every metric's current value keyed by name, with
// histograms expanded into count/mean/p50/p95/p99/max sub-keys. The
// result holds only strings and float64s, so it encodes as flat JSON;
// the servers' -debug-addr endpoints publish it through expvar.Func.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]interface{}, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
		out[name+".max"] = float64(g.Max())
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		out[name+".count"] = float64(s.Count())
		out[name+".mean_ms"] = s.Mean()
		out[name+".p50_ms"] = s.Quantile(0.50)
		out[name+".p95_ms"] = s.Quantile(0.95)
		out[name+".p99_ms"] = s.Quantile(0.99)
		out[name+".max_ms"] = s.Max()
	}
	for name, fn := range r.funcs {
		out[name] = fn()
	}
	return out
}

// Render formats the registry as sorted text: one line per counter and
// gauge, one summary line per histogram.
func (r *Registry) Render() string {
	r.mu.Lock()
	type hsnap struct {
		name string
		h    stats.Hist
	}
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.funcs))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%-40s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%-40s %d (max %d)", name, g.Value(), g.Max()))
	}
	for name, fn := range r.funcs {
		lines = append(lines, fmt.Sprintf("%-40s %g", name, fn()))
	}
	hists := make([]hsnap, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, hsnap{name, h.Snapshot()})
	}
	r.mu.Unlock()

	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, hs := range hists {
		s := hs.h
		lines = append(lines, fmt.Sprintf("%-40s n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
			hs.name, s.Count(), fmtMS(s.Mean()), fmtMS(s.Quantile(0.50)),
			fmtMS(s.Quantile(0.95)), fmtMS(s.Quantile(0.99)), fmtMS(s.Max())))
	}
	sort.Strings(lines)
	var b strings.Builder
	b.WriteString("-- metrics --\n")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
