// Package faults is the deterministic fault-injection subsystem: a Plan,
// parsed from a compact spec string and seeded like every other stochastic
// element of the repo, schedules injectable failures — connection resets,
// dial refusals, read/write latency, partial writes, frame corruption,
// server crash/restart, and SSD-device failure — and injects them through
// wrappers (net.Conn, net.Listener, a dial hook, and an object-store
// shim) so the production code paths under test run unmodified.
//
// A nil *Plan disarms everything: every wrapper method returns its input
// unchanged and every probe is a single nil test, the same
// zero-cost-when-off contract as internal/obs.
//
// # Spec grammar
//
// A spec is a semicolon-separated list of clauses:
//
//	seed=N                     plan seed (default 1)
//	reset=RATE                 injected connection resets on conn writes
//	refuse=RATE                injected dial refusals
//	partial=RATE               short write then reset, on conn writes
//	corrupt=RATE               clobber a byte of a conn read
//	latency=[SCOPE:]DUR[-DUR][@RATE]
//	                           added delay per conn read/write (default every
//	                           op); with a SCOPE: prefix only that endpoint's
//	                           conns are delayed — the knob that makes one
//	                           server a straggler
//	crash=SCOPE@OP+DOWN        sever SCOPE before driver op OP, restart DOWN ops later
//	ssdfail=SCOPE@N            fail SCOPE's SSD after N fragment-log writes
//
// RATE is a percentage ("1%", "0.5%") or a ratio ("1/200"). SCOPE names
// the wrapped endpoint ("srv0", "client", ...); rate clauses apply to
// every scope. Repeated crash/ssdfail clauses accumulate.
//
// # Determinism
//
// Rate faults fire on a stride schedule, not a coin flip: a rate of 1/k
// converts to "every k-th eligible operation", with the phase inside the
// stride drawn from the plan seed. Eligible operations are counted by a
// per-kind atomic counter, and reset/partial injection counts only
// conn *writes* (whose count is a pure function of the protocol traffic),
// never reads (whose count depends on TCP segmentation). Crash events are
// indexed by driver operation number and SSD failures by fragment-write
// count. Wall-clock time therefore never influences *which* faults fire
// — two runs of a sequential workload under the same plan inject
// identical fault counts — while injected latency (the one real-timer
// effect) changes only when things happen, not what happens.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrInjected is the parent of every error the injector fabricates;
// callers and tests distinguish injected failures from organic ones with
// errors.Is(err, faults.ErrInjected).
var ErrInjected = errors.New("faults: injected failure")

var (
	errReset   = fmt.Errorf("connection reset (%w)", ErrInjected)
	errRefused = fmt.Errorf("dial refused (%w)", ErrInjected)
	errPartial = fmt.Errorf("partial write (%w)", ErrInjected)
)

// kind indexes the rate-driven fault kinds.
type kind int

const (
	kindReset kind = iota
	kindRefuse
	kindPartial
	kindCorrupt
	kindLatency
	kindCrash
	kindSSDFail
	numKinds
)

var kindNames = [numKinds]string{
	"reset", "refuse", "partial", "corrupt", "latency", "crash", "ssdfail",
}

// rateRule is one armed stride schedule: the fault fires on every
// eligible operation whose per-kind index is ≡ phase (mod period).
type rateRule struct {
	period uint64 // 0 = disarmed
	phase  uint64
}

// EventKind is a scheduled state change executed by the test driver.
type EventKind int

const (
	// ServerDown severs the scoped server before the indexed driver op.
	ServerDown EventKind = iota
	// ServerUp restarts the scoped server before the indexed driver op.
	ServerUp
)

func (k EventKind) String() string {
	if k == ServerDown {
		return "down"
	}
	return "up"
}

// Event is one crash-schedule entry: before driver operation Op, the
// driver applies Kind to the server named Scope. The injector cannot
// restart a process itself, so crash/restart is surfaced as a schedule
// the owning harness executes between operations — which is also what
// keeps it deterministic.
type Event struct {
	Op    int
	Scope string
	Kind  EventKind
}

// ssdFailRule is one armed SSD-device failure: scope's SSD fails after
// writes fragment-log writes.
type ssdFailRule struct {
	scope  string
	writes int64
}

// Plan is an armed, seeded fault schedule. The zero value is not useful;
// build one with Parse. A nil *Plan is fully disarmed and safe to use.
type Plan struct {
	seed uint64
	spec string

	rates        [numKinds]rateRule
	latencyLo    time.Duration
	latencyHi    time.Duration
	latencyScope string // "" = every scope

	events   []Event
	ssdFails []ssdFailRule

	ops      [numKinds]atomic.Uint64 // eligible-operation counters
	injected [numKinds]atomic.Int64  // fired-fault counters

	reg    atomic.Pointer[obs.Registry]
	tracer atomic.Pointer[obs.XTracer]
}

// Parse builds a Plan from a spec string (see the package comment for
// the grammar). An empty spec yields a valid plan with nothing armed.
func Parse(spec string) (*Plan, error) {
	p := &Plan{seed: 1, spec: spec}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q: want key=value", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			p.seed, err = strconv.ParseUint(val, 10, 64)
		case "reset":
			err = p.setRate(kindReset, val)
		case "refuse":
			err = p.setRate(kindRefuse, val)
		case "partial":
			err = p.setRate(kindPartial, val)
		case "corrupt":
			err = p.setRate(kindCorrupt, val)
		case "latency":
			err = p.parseLatency(val)
		case "crash":
			err = p.parseCrash(val)
		case "ssdfail":
			err = p.parseSSDFail(val)
		default:
			return nil, fmt.Errorf("faults: unknown clause %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
	}
	// Phases depend on the seed, which any clause order may set last.
	for k := kind(0); k < numKinds; k++ {
		if p.rates[k].period > 1 {
			p.rates[k].phase = splitmix(p.seed^uint64(k)*0x9E3779B97F4A7C15) % p.rates[k].period
		}
	}
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].Op < p.events[j].Op })
	return p, nil
}

// MustParse is Parse for tests and examples with hard-coded specs.
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// setRate arms kind k at the parsed rate.
func (p *Plan) setRate(k kind, val string) error {
	period, err := parseRate(val)
	if err != nil {
		return err
	}
	p.rates[k].period = period
	return nil
}

// parseRate converts "1%", "0.5%", or "1/200" to a stride period.
func parseRate(s string) (uint64, error) {
	if num, den, ok := strings.Cut(s, "/"); ok {
		n, err1 := strconv.ParseUint(strings.TrimSpace(num), 10, 64)
		d, err2 := strconv.ParseUint(strings.TrimSpace(den), 10, 64)
		if err1 != nil || err2 != nil || n == 0 || d == 0 || d < n {
			return 0, fmt.Errorf("bad ratio %q", s)
		}
		return d / n, nil
	}
	pct, ok := strings.CutSuffix(s, "%")
	if !ok {
		return 0, fmt.Errorf("rate %q: want N%% or 1/N", s)
	}
	f, err := strconv.ParseFloat(pct, 64)
	if err != nil || f <= 0 || f > 100 {
		return 0, fmt.Errorf("bad percentage %q", s)
	}
	return uint64(100/f + 0.5), nil
}

// parseLatency parses [SCOPE:]DUR[-DUR][@RATE].
func (p *Plan) parseLatency(val string) error {
	// A scope prefix is unambiguous: durations never contain ':'.
	if scope, rest, ok := strings.Cut(val, ":"); ok {
		p.latencyScope = strings.TrimSpace(scope)
		val = rest
	}
	rate := uint64(1) // default: every op
	if dur, r, ok := strings.Cut(val, "@"); ok {
		var err error
		if rate, err = parseRate(r); err != nil {
			return err
		}
		val = dur
	}
	lo, hi, hasRange := strings.Cut(val, "-")
	dlo, err := time.ParseDuration(lo)
	if err != nil {
		return err
	}
	dhi := dlo
	if hasRange {
		if dhi, err = time.ParseDuration(hi); err != nil {
			return err
		}
	}
	if dlo < 0 || dhi < dlo {
		return fmt.Errorf("bad latency range %v-%v", dlo, dhi)
	}
	p.latencyLo, p.latencyHi = dlo, dhi
	p.rates[kindLatency].period = rate
	return nil
}

// parseCrash parses SCOPE@OP+DOWN into a down/up event pair.
func (p *Plan) parseCrash(val string) error {
	scope, sched, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("crash %q: want SCOPE@OP+DOWN", val)
	}
	at, down, ok := strings.Cut(sched, "+")
	if !ok {
		return fmt.Errorf("crash %q: want SCOPE@OP+DOWN", val)
	}
	op, err1 := strconv.Atoi(strings.TrimSpace(at))
	d, err2 := strconv.Atoi(strings.TrimSpace(down))
	if err1 != nil || err2 != nil || op < 0 || d <= 0 {
		return fmt.Errorf("crash %q: bad op indices", val)
	}
	p.events = append(p.events,
		Event{Op: op, Scope: scope, Kind: ServerDown},
		Event{Op: op + d, Scope: scope, Kind: ServerUp})
	return nil
}

// parseSSDFail parses SCOPE@N (fragment writes).
func (p *Plan) parseSSDFail(val string) error {
	scope, trigger, ok := strings.Cut(val, "@")
	n, err := strconv.ParseInt(trigger, 10, 64)
	if !ok || err != nil || n <= 0 {
		return fmt.Errorf("ssdfail %q: want SCOPE@N, N a positive fragment-write count", val)
	}
	p.ssdFails = append(p.ssdFails, ssdFailRule{scope: scope, writes: n})
	return nil
}

// Seed returns the plan seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// String returns the spec the plan was parsed from.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	return p.spec
}

// SetObs mirrors the injected-fault counters into reg under
// "faults.injected.*". Safe on a nil plan.
func (p *Plan) SetObs(reg *obs.Registry) {
	if p != nil {
		p.reg.Store(reg)
	}
}

// SetTracer mirrors every injected fault into tr as a "fault.<kind>"
// instant event, so a merged trace shows exactly where the injections
// landed among the request spans. The timestamp is taken inside obs
// (InstantNow): this package stays off the deterministic-clock surface.
// Safe on a nil plan.
func (p *Plan) SetTracer(tr *obs.XTracer) {
	if p != nil {
		p.tracer.Store(tr)
	}
}

// Counts returns the number of injected faults per kind (only kinds that
// fired appear). The internal counters always run, so reproducibility
// checks do not depend on an obs registry being attached.
func (p *Plan) Counts() map[string]int64 {
	out := map[string]int64{}
	if p == nil {
		return out
	}
	for k := kind(0); k < numKinds; k++ {
		if n := p.injected[k].Load(); n > 0 {
			out[kindNames[k]] = n
		}
	}
	return out
}

// CountsString renders Counts in stable order, e.g. "reset=3 crash=2".
func (p *Plan) CountsString() string {
	c := p.Counts()
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, c[name]))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Events returns the crash schedule sorted by driver-op index. The
// returned slice is shared; callers must not mutate it.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	return p.events
}

// NoteCrash records one executed crash-schedule event (the driver applies
// them, so the driver reports them).
func (p *Plan) NoteCrash() {
	if p != nil {
		p.note(kindCrash, "")
	}
}

// SSDFailWrites returns the fragment-write count at which scope's SSD
// fails, if an ssdfail clause targets it.
func (p *Plan) SSDFailWrites(scope string) (int64, bool) {
	if p == nil {
		return 0, false
	}
	for _, r := range p.ssdFails {
		if r.scope == scope {
			return r.writes, true
		}
	}
	return 0, false
}

// NoteSSDFail records one executed SSD failure.
func (p *Plan) NoteSSDFail() {
	if p != nil {
		p.note(kindSSDFail, "")
	}
}

// latencyApplies reports whether the latency clause targets scope. The
// check runs before fire so the stride schedule counts only eligible
// (in-scope) operations.
func (p *Plan) latencyApplies(scope string) bool {
	return p.latencyScope == "" || p.latencyScope == scope
}

// fire advances kind k's eligible-op counter and reports whether the
// stride schedule injects a fault at this op.
func (p *Plan) fire(k kind, scope string) bool {
	if p == nil {
		return false
	}
	r := p.rates[k]
	if r.period == 0 {
		return false
	}
	n := p.ops[k].Add(1) - 1
	if r.period > 1 && n%r.period != r.phase {
		return false
	}
	p.note(k, scope)
	return true
}

// note counts one injected fault and mirrors it to the obs registry and
// the cross-process tracer.
func (p *Plan) note(k kind, scope string) {
	p.injected[k].Add(1)
	if reg := p.reg.Load(); reg != nil {
		reg.Counter("faults.injected." + kindNames[k]).Inc()
	}
	if tr := p.tracer.Load(); tr != nil {
		tr.InstantNow("fault."+kindNames[k], scope)
	}
}

// latency returns the delay to inject for the n-th latency op: the low
// bound plus a seed-deterministic offset inside the range.
func (p *Plan) latency(n uint64) time.Duration {
	span := int64(p.latencyHi - p.latencyLo)
	if span <= 0 {
		return p.latencyLo
	}
	return p.latencyLo + time.Duration(splitmix(p.seed^0xA5A5A5A5^n)%uint64(span))
}

// Mix64 is the stateless SplitMix64 mix function, exported for callers
// that need deterministic jitter outside any shared generator (the
// pfsnet client's retry backoff draws from it).
func Mix64(x uint64) uint64 { return splitmix(x) }

// splitmix is the repo's SplitMix64 mix function (sim.RNG uses the same
// core); used here statelessly so concurrent injection points never
// contend on shared generator state.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
