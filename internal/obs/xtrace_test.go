package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestXTracerNilSafe(t *testing.T) {
	var tr *XTracer
	tr.Span(1, 2, 3, "x", "s", time.Unix(0, 0), time.Second)
	tr.Instant(1, 2, "x", "s", time.Unix(0, 0))
	tr.InstantNow("x", "s")
	tr.SetDropCounter(nil)
	if tr.NewID() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Proc() != "" || tr.Events() != nil {
		t.Fatal("nil XTracer must be inert")
	}
	if err := tr.WriteSpans(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteSpans: %v", err)
	}
}

func TestXTracerIDs(t *testing.T) {
	a, b := NewXTracer("client", 0), NewXTracer("srv0", 0)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		for _, id := range []uint64{a.NewID(), b.NewID()} {
			if id == 0 {
				t.Fatal("NewID returned 0")
			}
			if seen[id] {
				t.Fatalf("duplicate id %x", id)
			}
			seen[id] = true
		}
	}
	// Same process name → same deterministic sequence.
	if NewXTracer("client", 0).NewID() != NewXTracer("client", 0).NewID() {
		t.Fatal("NewID not deterministic per process name")
	}
}

func TestXTracerSpanFileRoundTrip(t *testing.T) {
	tr := NewXTracer("srv0", 0)
	trace, parent := tr.NewID(), tr.NewID()
	span := tr.NewID()
	start := time.Unix(100, 500)
	tr.Span(trace, span, parent, "queue-wait", "conn1", start, 3*time.Millisecond)
	tr.Instant(trace, parent, "fault.reset", "srv0", start.Add(time.Millisecond))

	var buf bytes.Buffer
	if err := tr.WriteSpans(&buf); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	evs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("round-tripped %d events, want 2", len(evs))
	}
	sp := evs[0]
	if sp.Proc != "srv0" || sp.Trace != trace || sp.Span != span || sp.Parent != parent ||
		sp.Name != "queue-wait" || sp.Scope != "conn1" ||
		sp.Start != start.UnixNano() || sp.Dur != int64(3*time.Millisecond) {
		t.Fatalf("span mangled in round trip: %+v", sp)
	}
	if evs[1].Dur != 0 || evs[1].Name != "fault.reset" {
		t.Fatalf("instant mangled: %+v", evs[1])
	}
}

func TestWriteChromeXMerge(t *testing.T) {
	client := NewXTracer("client", 0)
	srv := NewXTracer("srv0", 0)
	trace := client.NewID()
	parent := client.NewID()
	base := time.Unix(1000, 0)
	client.Span(trace, parent, 0, "WriteAt", "write", base, 10*time.Millisecond)
	srv.Span(trace, srv.NewID(), parent, "store", "conn1", base.Add(2*time.Millisecond), 4*time.Millisecond)

	evs := append(client.Events(), srv.Events()...)
	var buf bytes.Buffer
	if err := WriteChromeX(&buf, evs); err != nil {
		t.Fatalf("WriteChromeX: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged output is not JSON: %v", err)
	}
	var pids = map[string]float64{}
	var sawClientSpan, sawServerSpan bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			args := ev["args"].(map[string]interface{})
			pids[args["name"].(string)] = ev["pid"].(float64)
		}
		if ev["ph"] == "X" && ev["name"] == "WriteAt" {
			sawClientSpan = true
			if ev["ts"].(float64) != 0 {
				t.Errorf("earliest span should be normalized to ts=0, got %v", ev["ts"])
			}
		}
		if ev["ph"] == "X" && ev["name"] == "store" {
			sawServerSpan = true
			if ev["ts"].(float64) != 2000 { // 2 ms after the client span, in µs
				t.Errorf("server span ts = %v µs, want 2000", ev["ts"])
			}
			args := ev["args"].(map[string]interface{})
			if args["parent"] == "" || args["trace"] == "" {
				t.Errorf("server span lost its context: %v", args)
			}
		}
	}
	if !sawClientSpan || !sawServerSpan {
		t.Fatalf("merged trace missing spans (client=%v server=%v)", sawClientSpan, sawServerSpan)
	}
	if len(pids) != 2 || pids["client"] == pids["srv0"] {
		t.Fatalf("processes should map to distinct pids: %v", pids)
	}
}

func TestXTracerDropCounter(t *testing.T) {
	reg := NewRegistry()
	tr := NewXTracer("client", 2)
	tr.SetDropCounter(reg.Counter("obs.trace.dropped_events"))
	for i := 0; i < 5; i++ {
		tr.InstantNow("ev", "")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded)", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	if got := reg.Counter("obs.trace.dropped_events").Value(); got != 3 {
		t.Fatalf("obs.trace.dropped_events = %d, want 3", got)
	}
}

// TestTracerChromeJSON exports a simulator-style trace: lanes named
// run<N>/<comp> in the one process "sim", the parent request id in the
// trace arg, and the time origin at the earliest event even when that
// event starts at 0, as every simulator trace does — events at 0, 5 µs
// and 9 µs render at exactly those offsets, never shifted.
func TestTracerChromeJSON(t *testing.T) {
	tr := NewXTracer("sim", 0)
	at := func(us int64) time.Time { return time.Unix(0, us*1000) }
	tr.Span(7, 0, 0, "write", "run1/client", at(0), 9*time.Microsecond)
	tr.Instant(7, 0, "ssd-offload", "run1/bridge0", at(5))
	tr.Instant(0, 0, "staged", "run1/bridge0", at(9))

	var buf bytes.Buffer
	if err := WriteChromeX(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChromeX: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	want := map[string]float64{"write": 0, "ssd-offload": 5, "staged": 9}
	lanes := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			lanes[ev.Args["name"]] = true
			continue
		}
		if ts, ok := want[ev.Name]; !ok || ev.TS != ts {
			t.Errorf("%s at ts=%v µs, want %v", ev.Name, ev.TS, ts)
		}
		if ev.Name != "staged" && ev.Args["trace"] != "0000000000000007" {
			t.Errorf("%s lost its trace arg: %v", ev.Name, ev.Args)
		}
	}
	for _, name := range []string{"sim", "run1/client", "run1/bridge0"} {
		if !lanes[name] {
			t.Errorf("no metadata event names %q (have %v)", name, lanes)
		}
	}
}

// TestTracerBufferBound: the Set's tracer is the one "sim" XTracer,
// bounded at DefaultMaxEvents; past the bound it counts drops instead of
// growing, with no registry attached.
func TestTracerBufferBound(t *testing.T) {
	tr := New(Config{Trace: true}).Tracer()
	if tr.Proc() != "sim" || tr.max != DefaultMaxEvents {
		t.Fatalf("Set tracer = %q bounded at %d, want \"sim\" at %d", tr.Proc(), tr.max, DefaultMaxEvents)
	}
	tr.max = 2 // shrink the bound rather than record a million events
	for i := 0; i < 5; i++ {
		tr.Instant(uint64(i), 0, "e", "run1/c", time.Unix(0, int64(i)))
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("Len/Dropped = %d/%d, want 2/3", tr.Len(), tr.Dropped())
	}
}

// The Set's tracer mirrors its overflow into the registry when metrics
// are on too.
func TestTracerDropCounterWired(t *testing.T) {
	s := New(Config{Metrics: true, Trace: true})
	tr := s.Tracer()
	tr.max = 1
	for _, name := range []string{"a", "b", "c"} {
		tr.Instant(0, 0, name, "run1/c", time.Unix(0, 0))
	}
	if d := tr.Dropped(); d != 2 {
		t.Fatalf("Dropped = %d, want 2", d)
	}
	if got := s.Registry().Counter("obs.trace.dropped_events").Value(); got != 2 {
		t.Fatalf("obs.trace.dropped_events = %d, want 2", got)
	}
	snap := s.Registry().Snapshot()
	if _, ok := snap["obs.trace.dropped_events"]; !ok {
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		t.Fatalf("dropped_events not in snapshot: %s", strings.Join(keys, ","))
	}
}
