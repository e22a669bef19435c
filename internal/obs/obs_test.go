package obs

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/vtime"
)

func TestNewDisabledIsNil(t *testing.T) {
	if s := New(Config{}); s != nil {
		t.Fatalf("New with nothing enabled = %v, want nil", s)
	}
}

func TestNilSetAccessorsAreSafe(t *testing.T) {
	var s *Set
	if s.Registry() != nil || s.Tracer() != nil {
		t.Error("nil Set accessors must return nil sinks")
	}
	if s.DeviceMetrics("hdd") != nil ||
		s.QueueMetrics("q") != nil || s.BridgeMetrics() != nil || s.PFSMetrics() != nil {
		t.Error("nil Set metric bundles must be nil")
	}
	if s.TiSampler("x") != nil {
		t.Error("nil Set TiSampler must be nil")
	}
	if s.NextRun() != 0 {
		t.Error("nil Set NextRun must be 0")
	}
	// Writers must be no-ops, not panics.
	s.WriteMetrics(&strings.Builder{})
	s.WriteTiSeries(&strings.Builder{})
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter lookup must be idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge lookup must be idempotent")
	}
	if r.Hist("h") != r.Hist("h") {
		t.Error("Hist lookup must be idempotent")
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Hist("h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(int64(i*1000 + j))
				h.Observe(float64(j))
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Max() < 7000 {
		t.Errorf("gauge max = %d, want >= 7000", g.Max())
	}
	if s := h.Snapshot(); s.Count() != 8000 {
		t.Errorf("hist count = %d, want 8000", s.Count())
	}
}

func TestRegistryRenderAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("bridge.hits").Add(7)
	r.Gauge("engine.pending").Set(42)
	r.Hist("hdd.service_ms").Observe(3.5)
	r.RegisterFunc("live.reads", func() float64 { return 11 })

	out := r.Render()
	for _, want := range []string{"bridge.hits", "7", "engine.pending", "hdd.service_ms", "live.reads", "-- metrics --"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	snap := r.Snapshot()
	if snap["bridge.hits"] != float64(7) {
		t.Errorf("snapshot bridge.hits = %v", snap["bridge.hits"])
	}
	if snap["live.reads"] != float64(11) {
		t.Errorf("snapshot live.reads = %v", snap["live.reads"])
	}
	if snap["hdd.service_ms.count"] != float64(1) {
		t.Errorf("snapshot hist count = %v", snap["hdd.service_ms.count"])
	}
}

// TestSnapshotWhileObserving scrapes a registry while a histogram is
// being observed into: a snapshot must not share the buckets that
// Observe writes (run with -race).
func TestSnapshotWhileObserving(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("client.read")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			h.Observe(float64(i%100+1) / 10)
		}
	}()
	for scrapes := 0; ; scrapes++ {
		select {
		case <-done:
			if s := h.Snapshot(); s.Count() != 20000 {
				t.Fatalf("hist count = %d, want 20000", s.Count())
			}
			return
		default:
		}
		snap := r.Snapshot()
		if n := snap["client.read.count"].(float64); n > 0 && snap["client.read.p99_ms"].(float64) <= 0 {
			t.Fatalf("scrape %d: p99 %v over %v samples", scrapes, snap["client.read.p99_ms"], n)
		}
		if !strings.Contains(r.Render(), "client.read") {
			t.Fatal("Render lost the histogram")
		}
	}
}

func TestDeviceMetricsObserve(t *testing.T) {
	s := New(Config{Metrics: true})
	m := s.DeviceMetrics("hdd")
	m.ObserveIO(device.Request{Op: device.Read, Sectors: 8}, 2*vtime.Millisecond, vtime.Millisecond)
	m.ObserveIO(device.Request{Op: device.Write, Sectors: 8}, 0, vtime.Millisecond)
	if m.Reads.Value() != 1 || m.Writes.Value() != 1 {
		t.Errorf("ops = %d/%d, want 1/1", m.Reads.Value(), m.Writes.Value())
	}
	if sn := m.Service.Snapshot(); sn.Count() != 2 || sn.Max() < 2.9 {
		t.Errorf("service hist: n=%d max=%g", sn.Count(), sn.Max())
	}
}

func TestSetAggregatesAcrossBundles(t *testing.T) {
	s := New(Config{Metrics: true})
	// Two "clusters" resolving the same names share the counters.
	a, b := s.BridgeMetrics(), s.BridgeMetrics()
	a.Stages.Inc()
	b.Stages.Inc()
	if got := s.Registry().Counter("bridge.stages").Value(); got != 2 {
		t.Errorf("aggregated stages = %d, want 2", got)
	}
}

func TestTiSampler(t *testing.T) {
	s := New(Config{Metrics: true, SampleEvery: 10 * vtime.Millisecond})
	ts := s.TiSampler("run1")
	view := []float64{0.001, 0.002}
	ts.Sample(0, view, TiSnapshot{Hits: 1})
	ts.Sample(5*vtime.Time(vtime.Millisecond), view, TiSnapshot{}) // inside rate limit: dropped
	ts.Sample(10*vtime.Time(vtime.Millisecond), view, TiSnapshot{Hits: 3, BoostedOffloads: 2})
	got := ts.Samples()
	if len(got) != 2 {
		t.Fatalf("samples = %d, want 2 (rate limit)", len(got))
	}
	if got[1].Snap.Hits != 3 || got[1].Snap.BoostedOffloads != 2 {
		t.Errorf("snapshot not carried: %+v", got[1].Snap)
	}
	// The view must be copied, not aliased.
	view[0] = 99
	if got := ts.Samples(); got[0].T[0] == 99 {
		t.Error("sampler aliased the live view slice")
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "ti[run1]") {
		t.Errorf("WriteMetrics missing sampler summary:\n%s", sb.String())
	}
	sb.Reset()
	s.WriteTiSeries(&sb)
	if !strings.Contains(sb.String(), "T_i series [run1]") || !strings.Contains(sb.String(), "boosted=2") {
		t.Errorf("WriteTiSeries output:\n%s", sb.String())
	}
}
