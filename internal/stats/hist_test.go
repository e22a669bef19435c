package stats

import (
	"math"
	"testing"
)

func TestExpBounds(t *testing.T) {
	b := ExpBounds(1, 1000, 1)
	want := []float64{1, 10, 100, 1000}
	if len(b) != len(want) {
		t.Fatalf("ExpBounds(1,1000,1) = %v, want %v", b, want)
	}
	for i := range want {
		if math.Abs(b[i]-want[i])/want[i] > 1e-9 {
			t.Errorf("bound %d = %g, want %g", i, b[i], want[i])
		}
	}
	fine := ExpBounds(0.01, 1000, 4)
	for i := 1; i < len(fine); i++ {
		if fine[i] <= fine[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, fine)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist(ExpBounds(1, 100, 2))
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistBasicStats(t *testing.T) {
	h := NewHist(ExpBounds(0.1, 1000, 4))
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %g, want 50.5", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %g/%g, want 1/100", h.Min(), h.Max())
	}
	// Quantiles are bucket-interpolated: with 4 buckets per decade the
	// relative error is bounded by one bucket width (10^(1/4) ≈ 1.78x).
	checks := []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want/1.8 || got > c.want*1.8 {
			t.Errorf("Quantile(%g) = %g, want within a bucket of %g", c.q, got, c.want)
		}
	}
	// Extremes are exact.
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Errorf("Quantile extremes = %g/%g, want 1/100", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistSingleValue(t *testing.T) {
	h := NewHist(ExpBounds(1, 1000, 2))
	for i := 0; i < 10; i++ {
		h.Observe(42)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("Quantile(%g) = %g, want 42 (clamped to observed range)", q, got)
		}
	}
}

func TestHistOverflowBucket(t *testing.T) {
	h := NewHist([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(1e6) // above the last bound: overflow bucket
	if h.Max() != 1e6 {
		t.Errorf("Max = %g, want 1e6", h.Max())
	}
	if got := h.Quantile(1); got != 1e6 {
		t.Errorf("Quantile(1) = %g, want 1e6", got)
	}
}

// TestHistQuantileEdgeCases is the table form of the quantile contract:
// empty histograms report zero, a single observation pins every
// quantile, values beyond the last bound land in the overflow bucket
// but stay clamped to the observed max.
func TestHistQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Hist
		q, want float64
	}{
		{"empty p50", func() *Hist { return NewHist(ExpBounds(1, 100, 2)) }, 0.5, 0},
		{"empty p99", func() *Hist { return NewHist(ExpBounds(1, 100, 2)) }, 0.99, 0},
		{"single observation p50", func() *Hist {
			h := NewHist(ExpBounds(1, 1000, 4))
			h.Observe(7)
			return h
		}, 0.5, 7},
		{"single observation p99", func() *Hist {
			h := NewHist(ExpBounds(1, 1000, 4))
			h.Observe(7)
			return h
		}, 0.99, 7},
		{"all in overflow bucket p50", func() *Hist {
			h := NewHist([]float64{1, 10})
			for i := 0; i < 5; i++ {
				h.Observe(1e4)
			}
			return h
		}, 0.5, 1e4},
		{"all in overflow bucket p100", func() *Hist {
			h := NewHist([]float64{1, 10})
			h.Observe(100)
			h.Observe(200)
			return h
		}, 1, 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.build().Quantile(c.q); got != c.want {
				t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
			}
		})
	}
}
