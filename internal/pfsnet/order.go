package pfsnet

import (
	"sort"

	"repro/internal/stripe"
)

// Issue ordering and load hints (DESIGN §13).
//
// A striped request completes only when its slowest server group does,
// so the client submits the predicted-slowest group first and gives
// that server a head start. The prediction comes from the per-server
// latency sketches, seeded by the T_i load-hint vector the metadata
// server broadcasts on Create/Open replies.

// SetLoadHints installs the T_i load-hint vector (server address →
// expected service time, milliseconds). The client also learns it
// automatically from metadata replies that carry one. Installed hints
// arm issue ordering; cold sketches fall back to them for its cost
// estimate.
func (c *Client) SetLoadHints(h map[string]float64) {
	cp := make(map[string]float64, len(h))
	for k, v := range h {
		cp[k] = v
	}
	c.hintMu.Lock()
	c.hints = cp
	c.hintMu.Unlock()
}

// LoadHints returns a copy of the client's current T_i load-hint
// vector; nil when none has been installed.
func (c *Client) LoadHints() map[string]float64 {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	if c.hints == nil {
		return nil
	}
	cp := make(map[string]float64, len(c.hints))
	for k, v := range c.hints {
		cp[k] = v
	}
	return cp
}

// hintsArmed reports whether a load-hint vector is installed.
func (c *Client) hintsArmed() bool {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	return len(c.hints) > 0
}

// loadHintFor returns addr's T_i load hint in milliseconds, 0 when
// unknown.
func (c *Client) loadHintFor(addr string) float64 {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	return c.hints[addr]
}

// orderGroups sorts server groups slowest-predicted-first in place, so
// the group expected to finish last is submitted first and its server
// gets a head start — the completion time of a striped request is the
// max over groups, and issue order is the one lever the client holds
// before the wire. The prediction is sketch-p95 × queued bytes, seeded
// by the T_i load hint while the sketch is cold. A stable sort with
// deterministic inputs keeps the order reproducible; with no hints
// installed this is a no-op, preserving the client's exact submission
// order.
func (c *Client) orderGroups(f *File, groups [][]stripe.Sub, class string) {
	if len(groups) < 2 || !c.hintsArmed() {
		return
	}
	type scored struct {
		g    []stripe.Sub
		cost float64
	}
	sc := make([]scored, len(groups))
	for i, g := range groups {
		addr := f.servers[g[0].Server]
		est := 1.0
		if sk := c.sketchFor(addr, class); sk != nil && sk.Count() > 0 {
			if p := sk.Quantile(0.95); p > 0 {
				est = p
			}
		} else if hint := c.loadHintFor(addr); hint > 0 {
			est = hint
		}
		var bytes int64
		for _, sub := range g {
			bytes += sub.Length
		}
		sc[i] = scored{g: g, cost: est * float64(bytes)}
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].cost > sc[j].cost })
	for i := range sc {
		groups[i] = sc[i].g
	}
}
