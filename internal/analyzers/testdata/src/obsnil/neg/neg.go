// Fixture: the guarded probe idioms the nil-sink contract prescribes.
// Must be clean.
package neg

import "repro/internal/obs"

type comp struct {
	m  *obs.PFSMetrics
	bm *obs.BridgeMetrics
}

// Guarded is the canonical probe site: one branch per bundle.
func (c *comp) Guarded(ms float64) {
	if c.m != nil {
		c.m.Parent.Observe(1)
		c.m.SubServe.Observe(ms)
	}
	if c.bm != nil {
		c.bm.Stages.Inc()
	}
}

// EarlyReturn guards with the wireMetrics-style early exit, including
// the || form whose fallthrough still implies both pointers are
// non-nil.
func (c *comp) EarlyReturn() {
	if c.m == nil || c.bm == nil {
		return
	}
	c.m.Parent.Observe(1)
	c.bm.Writebacks.Inc()
}

// ElseBranch guards through the else arm of an == nil test.
func (c *comp) ElseBranch() {
	if c.m == nil {
		// disabled: nothing to record
	} else {
		c.m.SubServe.Observe(1)
	}
}

// Param guards a bundle received as an argument.
func Param(m *obs.PFSMetrics) {
	if m == nil {
		return
	}
	m.Parent.Observe(1)
}

// Bound binds an accessor result and guards it in the if-init form.
func Bound(s *obs.Set) {
	if bm := s.BridgeMetrics(); bm != nil {
		bm.Stages.Inc()
	}
}

// localMetrics is a bundle of the component's own package. Its method
// guards itself, so a caller needs no guard.
type localMetrics struct{ hits *obs.Counter }

func (m *localMetrics) inc() {
	if m == nil {
		return
	}
	m.hits.Inc()
}

func Local(m *localMetrics) { m.inc() }

// Conjoined piggybacks the nil check onto another condition with &&.
func Conjoined(c *comp, hot bool) {
	if hot && c.m != nil {
		c.m.Parent.Observe(1)
	}
}
