package obs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// XTracer is the one request-flow tracer. Every event carries an
// explicit {traceID, spanID, parentSpanID} context and a caller-supplied
// timestamp: the live pfsnet client and data servers stamp wall-clock
// time and write per-process span files that are later aligned into one
// Chrome trace (cmd/ibridge-trace -merge; the context travels on the
// wire, DESIGN §12); the simulator stamps virtual time into the single
// "sim" tracer of an obs.Set.

// XEvent is one trace record: a completed span when Dur > 0, an instant
// marker when Dur == 0. Start is UnixNano (wall clock, or virtual time
// from 0 in the simulator); Proc names the emitting logical process
// (e.g. "client", "srv0", "sim") and Scope the lane within it (op class,
// connection, "run3/bridge0", ...).
type XEvent struct {
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Proc   string `json:"proc"`
	Name   string `json:"name"`
	Scope  string `json:"scope,omitempty"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur,omitempty"`
}

// XTracer buffers XEvents for one logical process. A nil *XTracer is
// valid and records nothing — the same zero-cost-when-nil contract as
// the rest of the package, so the pfsnet hot path pays one pointer
// test when tracing is off. All methods are safe for concurrent use.
type XTracer struct {
	proc    string
	mu      sync.Mutex
	events  []XEvent
	max     int
	dropped int64
	dropC   *Counter
	warned  bool
	ids     atomic.Uint64
	seed    uint64
}

// DefaultMaxEvents bounds a tracer's buffer when NewXTracer is given 0.
const DefaultMaxEvents = 1 << 20

// NewXTracer returns a tracer for the named logical process, buffering
// up to max events (0 uses DefaultMaxEvents).
func NewXTracer(proc string, max int) *XTracer {
	if max <= 0 {
		max = DefaultMaxEvents
	}
	// Seed the ID sequence from the process name so IDs allocated by
	// different processes of one run do not collide (FNV-1a offset).
	seed := uint64(14695981039346656037)
	for i := 0; i < len(proc); i++ {
		seed ^= uint64(proc[i])
		seed *= 1099511628211
	}
	return &XTracer{proc: proc, max: max, seed: seed}
}

// Proc returns the logical process name ("" for a nil tracer).
func (t *XTracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// NewID allocates a nonzero trace or span identifier: a splitmix64
// stream seeded from the process name, so IDs are deterministic within
// a process and disjoint across differently named processes.
func (t *XTracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	z := t.seed + t.ids.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// SetDropCounter mirrors overflow drops into c (conventionally
// "obs.trace.dropped_events").
func (t *XTracer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropC = c
	t.mu.Unlock()
}

// Span records a completed span. span comes from NewID, or is 0 for a
// span no other event names as parent (the simulator's); parent is 0
// for a root span.
func (t *XTracer) Span(trace, span, parent uint64, name, scope string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.record(XEvent{
		Trace: trace, Span: span, Parent: parent,
		Name: name, Scope: scope,
		Start: start.UnixNano(), Dur: int64(dur),
	})
}

// Instant records a point event under the given context (both ids may
// be 0 for unattributed events such as fault injections).
func (t *XTracer) Instant(trace, parent uint64, name, scope string, at time.Time) {
	if t == nil {
		return
	}
	t.record(XEvent{Trace: trace, Parent: parent, Name: name, Scope: scope, Start: at.UnixNano()})
}

// InstantNow is Instant stamped with the current wall clock. It exists
// so packages banned from reading the clock themselves (internal/faults
// is on the detclock deterministic surface) can still mirror events
// into a trace: the timestamp is taken here, inside obs.
func (t *XTracer) InstantNow(name, scope string) {
	if t == nil {
		return
	}
	t.record(XEvent{Name: name, Scope: scope, Start: time.Now().UnixNano()})
}

func (t *XTracer) record(ev XEvent) {
	ev.Proc = t.proc
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
		if t.dropC != nil {
			t.dropC.Inc()
		}
		warn := !t.warned
		t.warned = true
		max := t.max
		t.mu.Unlock()
		if warn {
			log.Printf("obs: span buffer full for %q (%d events); dropping further events (count: obs.trace.dropped_events)", t.proc, max)
		}
		return
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *XTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events lost to the buffer bound.
func (t *XTracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered events in sortXEvents order.
func (t *XTracer) Events() []XEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := make([]XEvent, len(t.events))
	copy(evs, t.events)
	t.mu.Unlock()
	sortXEvents(evs)
	return evs
}

// sortXEvents orders events by time, then by every other field: a total
// order, so the result does not depend on how recorders interleaved.
func sortXEvents(evs []XEvent) {
	slices.SortFunc(evs, func(a, b XEvent) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.Span, b.Span), strings.Compare(a.Name, b.Name),
			strings.Compare(a.Proc, b.Proc), strings.Compare(a.Scope, b.Scope),
			cmp.Compare(a.Trace, b.Trace), cmp.Compare(a.Parent, b.Parent), cmp.Compare(a.Dur, b.Dur))
	})
}

// WriteSpans emits the buffered events as JSON lines — the span-file
// format consumed by ReadSpans and `ibridge-trace -merge`.
func (t *XTracer) WriteSpans(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a span file written by WriteSpans.
func ReadSpans(r io.Reader) ([]XEvent, error) {
	var evs []XEvent
	dec := json.NewDecoder(r)
	for {
		var ev XEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: parsing span file: %w", err)
		}
		evs = append(evs, ev)
	}
}

// chromeEvent is one entry of the Chrome trace_event JSON format,
// consumable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string      `json:"name"`
	Phase string      `json:"ph"`
	TS    float64     `json:"ts"` // microseconds
	Dur   *float64    `json:"dur,omitempty"`
	Pid   int32       `json:"pid"`
	Tid   int32       `json:"tid"`
	Scope string      `json:"s,omitempty"`
	Args  *chromeArgs `json:"args,omitempty"`
}

// chromeArgs names a metadata event's process or lane, or carries an
// event's ids in hex (fields in the order a map would sort them).
type chromeArgs struct {
	Name   string `json:"name,omitempty"`
	Parent string `json:"parent,omitempty"`
	Span   string `json:"span,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

func hexID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// WriteChromeX writes XEvents — one tracer's, or several per-process
// span files merged — as one Chrome trace_event JSON document.
// Processes map to pids (sorted by name) and scopes within a process
// to tids; timestamps are normalized so the earliest event across all
// processes sits at t=0, which is what visually aligns a client's
// request span with the server-side queue-wait/store/respond child
// spans it caused. Span/parent/trace ids ride in args.
func WriteChromeX(w io.Writer, evs []XEvent) error {
	evs = append([]XEvent(nil), evs...)
	sortXEvents(evs)

	var t0 int64
	if len(evs) > 0 {
		t0 = evs[0].Start
	}
	procs := map[string]int32{}
	var procNames []string
	for _, ev := range evs {
		if _, ok := procs[ev.Proc]; !ok {
			procs[ev.Proc] = 0
			procNames = append(procNames, ev.Proc)
		}
	}
	slices.Sort(procNames)
	for i, name := range procNames {
		procs[name] = int32(i + 1)
	}

	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{}
	type lane struct {
		pid   int32
		scope string
	}
	tids := map[lane]int32{}
	for _, name := range procNames {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", Pid: procs[name],
			Args: &chromeArgs{Name: name},
		})
	}
	for _, ev := range evs {
		pid := procs[ev.Proc]
		scope := ev.Scope
		if scope == "" {
			scope = "main"
		}
		l := lane{pid, scope}
		tid, ok := tids[l]
		if !ok {
			tid = int32(len(tids) + 1)
			tids[l] = tid
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", Pid: pid, Tid: tid,
				Args: &chromeArgs{Name: scope},
			})
		}
		ce := chromeEvent{
			Name: ev.Name,
			TS:   float64(ev.Start-t0) / 1e3, // ns → µs
			Pid:  pid,
			Tid:  tid,
		}
		if ev.Trace|ev.Span|ev.Parent != 0 {
			ce.Args = &chromeArgs{Parent: hexID(ev.Parent), Span: hexID(ev.Span), Trace: hexID(ev.Trace)}
		}
		if ev.Dur > 0 {
			ce.Phase = "X"
			d := float64(ev.Dur) / 1e3
			ce.Dur = &d
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return json.NewEncoder(w).Encode(out)
}
