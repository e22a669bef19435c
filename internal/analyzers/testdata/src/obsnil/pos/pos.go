// Fixture: violations of the obs nil-sink contract — bundle
// dereferences with no dominating nil check.
package pos

import "repro/internal/obs"

type comp struct {
	m  *obs.PFSMetrics
	bm *obs.BridgeMetrics
}

// Bad probes without guarding either sink.
func (c *comp) Bad() {
	c.m.Parent.Observe(1) // want "without a dominating nil check"
	c.bm.Stages.Inc()     // want "without a dominating nil check"
}

// WrongGuard checks a different field than the one dereferenced.
func (c *comp) WrongGuard() {
	if c.bm != nil {
		c.m.Parent.Observe(1) // want "without a dominating nil check"
	}
}

// localMetrics is a bundle of the component's own package.
type localMetrics struct{ hits *obs.Counter }

func (m *localMetrics) inc() {
	m.hits.Inc() // want "without a dominating nil check"
}

// Chain dereferences an accessor result that can never be nil-checked.
func Chain(s *obs.Set) {
	s.BridgeMetrics().Stages.Inc() // want "cannot be nil-checked"
}

// Closure shows that a guard outside a function literal does not
// dominate the code inside it — the closure may run later, after the
// bundle is swapped out.
func Closure(c *comp) func() {
	if c.m != nil {
		return func() {
			c.m.Parent.Observe(1) // want "without a dominating nil check"
		}
	}
	return nil
}
