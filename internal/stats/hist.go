package stats

import (
	"math"
	"slices"
	"sort"
)

// Hist is a fixed-bucket histogram: bucket boundaries are chosen once at
// construction and observations are counted into them, so recording a
// value is a binary search plus two integer increments — no allocation
// and no data retention beyond the counts. Quantiles are estimated by
// linear interpolation within the containing bucket, clamped to the
// observed min/max, which keeps the estimate exact at the extremes and
// within one bucket's resolution elsewhere.
//
// Hist is the percentile engine behind internal/obs's latency metrics;
// it is not safe for concurrent use (obs wraps it with a lock).
type Hist struct {
	// bounds[i] is the inclusive upper bound of bucket i; bucket
	// len(bounds) is the overflow bucket.
	bounds []float64
	counts []int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// NewHist returns a histogram over the given ascending bucket upper
// bounds. An extra overflow bucket catches values above the last bound.
func NewHist(bounds []float64) *Hist {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Hist{
		bounds: bounds,
		counts: make([]int64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// ExpBounds returns exponentially spaced bucket bounds from lo to hi
// (both > 0) with perDecade buckets per factor of ten — the standard
// layout for latency histograms, giving constant relative resolution.
func ExpBounds(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic("stats: ExpBounds requires 0 < lo < hi and perDecade > 0")
	}
	step := math.Pow(10, 1/float64(perDecade))
	var bounds []float64
	for b := lo; b < hi*(1+1e-12); b *= step {
		bounds = append(bounds, b)
	}
	return bounds
}

// Observe counts one value. It performs no allocation.
func (h *Hist) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Clone returns a copy of h that shares no memory with it, so one
// goroutine can read the copy while another observes into h.
func (h *Hist) Clone() Hist {
	cp := *h
	cp.counts = slices.Clone(h.counts)
	return cp
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation (0 when empty).
func (h *Hist) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Hist) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-th quantile (0..1) by locating the bucket
// containing the target rank and interpolating linearly inside it. The
// estimate is clamped to the observed [min, max].
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := h.bucketRange(i)
			frac := (rank - float64(cum)) / float64(c)
			v := lo + frac*(hi-lo)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// bucketRange returns the value range covered by bucket i, clamped to
// the observed min/max so sparse edge buckets do not over-widen the
// interpolation interval.
func (h *Hist) bucketRange(i int) (lo, hi float64) {
	switch {
	case i == 0:
		lo = h.min
	default:
		lo = h.bounds[i-1]
	}
	if i < len(h.bounds) {
		hi = h.bounds[i]
	} else {
		hi = h.max
	}
	if hi > h.max {
		hi = h.max
	}
	if lo < h.min {
		lo = h.min
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
