package pfsnet

import (
	"fmt"
	"sync"
)

// breaker is the client's per-server circuit breaker. It is count-based
// and clock-free: breakerThreshold consecutive transport failures open
// it, and while open exactly one caller at a time is admitted as a
// probe; every other caller fails fast with ErrServerDown instead of
// queueing behind a server that is known to be down. The first successful exchange (or
// any reply from the server, including an error reply — the server
// answered, so it is alive) closes the breaker.
//
// Admitting the very next caller as the probe, rather than gating probes
// on a cooldown timer, keeps recovery immediate — a restarted server is
// back in service on the first request that reaches it — and keeps the
// breaker's behaviour a pure function of the request/failure sequence,
// which is what makes chaos runs reproducible from the fault-plan seed.
type breaker struct {
	mu      sync.Mutex
	consec  int
	open    bool
	probing bool
}

// acquire asks to attempt a request. It returns probe=true when the
// breaker is open and this caller has been admitted as the single
// in-flight probe; it returns an error wrapping ErrServerDown when the
// breaker is open and a probe is already out.
func (b *breaker) acquire(addr string) (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return false, nil
	}
	if b.probing {
		return false, fmt.Errorf("pfsnet: %s: %w after %d consecutive transport failures", addr, ErrServerDown, b.consec)
	}
	b.probing = true
	return true, nil
}

// record reports the outcome of an attempt admitted by acquire. It
// returns the breaker's state transition, if any, so the caller can
// maintain gauges without re-entering the lock.
func (b *breaker) record(probe, ok bool) (opened, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if ok {
		b.consec = 0
		if b.open {
			b.open = false
			return false, true
		}
		return false, false
	}
	b.consec++
	if !b.open && b.consec >= breakerThreshold {
		b.open = true
		return true, false
	}
	return false, false
}
