package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// chromeDoc is the part of a Chrome trace_event document the merge
// tests read.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Pid  int32   `json:"pid"`
		Args *struct {
			Name   string `json:"name"`
			Parent string `json:"parent"`
			Span   string `json:"span"`
			Trace  string `json:"trace"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// writeSpanFile writes tr's spans to a file in dir and returns its path.
func writeSpanFile(t *testing.T, dir string, tr *obs.XTracer) string {
	t.Helper()
	path := filepath.Join(dir, tr.Proc()+".spans")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteSpans(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeSpans writes a client's and a data server's span files, as
// two processes of one run would, and merges them with -merge. The
// output must be one Chrome document with one pid per process; the
// server's child spans must keep the client span as their parent; and
// every timestamp must be measured from the earliest event of either
// file.
func TestMergeSpans(t *testing.T) {
	origin := time.Unix(1_700_000_000, 0)
	at := func(ms int) time.Time { return origin.Add(time.Duration(ms) * time.Millisecond) }

	client := obs.NewXTracer("client", 0)
	srv := obs.NewXTracer("srv0", 0)
	trace, parent := client.NewID(), client.NewID()
	client.Span(trace, parent, 0, "ReadAt", "read", at(1), 5*time.Millisecond)
	srv.Instant(0, 0, "fault.reset", "faults", at(0)) // the earliest event of the run
	srv.Span(trace, srv.NewID(), parent, "queue-wait", "conn", at(2), time.Millisecond)
	srv.Span(trace, srv.NewID(), parent, "store", "conn", at(3), 2*time.Millisecond)

	dir := t.TempDir()
	out := filepath.Join(dir, "merged.json")
	files := []string{writeSpanFile(t, dir, client), writeSpanFile(t, dir, srv)}
	if err := mergeSpans(files, out); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var doc chromeDoc
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("merged output is not a JSON document: %v", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("merged output holds more than one document (%v)", err)
	}

	procPid := map[string]int32{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			procPid[ev.Args.Name] = ev.Pid
		}
	}
	if len(procPid) != 2 || procPid["client"] == procPid["srv0"] || procPid["client"] == 0 || procPid["srv0"] == 0 {
		t.Fatalf("process pids = %v, want one distinct pid for client and for srv0", procPid)
	}

	hex := func(id uint64) string { return fmt.Sprintf("%016x", id) }
	wantTS := map[string]float64{"fault.reset": 0, "ReadAt": 1000, "queue-wait": 2000, "store": 3000}
	wantProc := map[string]string{"fault.reset": "srv0", "ReadAt": "client", "queue-wait": "srv0", "store": "srv0"}
	seen := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		seen++
		ts, ok := wantTS[ev.Name]
		if !ok {
			t.Fatalf("unexpected event %q", ev.Name)
		}
		if ev.TS != ts {
			t.Errorf("%s at %v µs, want %v µs from the common origin", ev.Name, ev.TS, ts)
		}
		if ev.Pid != procPid[wantProc[ev.Name]] {
			t.Errorf("%s under pid %d, want %s's pid %d", ev.Name, ev.Pid, wantProc[ev.Name], procPid[wantProc[ev.Name]])
		}
		switch ev.Name {
		case "ReadAt":
			if ev.Args == nil || ev.Args.Span != hex(parent) || ev.Args.Trace != hex(trace) {
				t.Errorf("client span args = %+v, want span %s in trace %s", ev.Args, hex(parent), hex(trace))
			}
		case "queue-wait", "store":
			if ev.Args == nil || ev.Args.Parent != hex(parent) || ev.Args.Trace != hex(trace) {
				t.Errorf("server span %s args = %+v, want parent %s in trace %s", ev.Name, ev.Args, hex(parent), hex(trace))
			}
		}
	}
	if seen != len(wantTS) {
		t.Fatalf("merged %d events, want %d", seen, len(wantTS))
	}
}

// TestMergeSpansNeedsFiles checks that -merge without span files is an
// error, not an empty trace.
func TestMergeSpansNeedsFiles(t *testing.T) {
	if err := mergeSpans(nil, filepath.Join(t.TempDir(), "out.json")); err == nil {
		t.Fatal("merge of no files succeeded")
	}
}
