package pfsnet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/logstore"
)

// These tests pin a data server over internal/logstore: the store is the
// disk, so it keeps every acknowledged byte across a restart whatever
// happens to the fragment log (the SSD), and `ssdfail=SCOPE@N` fails the
// fragment log alone after N fragment-log writes.

// newLogBackedServer starts a data server over a log store in dir and a
// metadata server striping over it, and returns them with a client
// that flags writes under 20 KiB as fragments.
func newLogBackedServer(t *testing.T, dir string, bridge bool, plan *faults.Plan) (*DataServer, *Client) {
	t.Helper()
	ls, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{
		Bridge:     bridge,
		Store:      ls,
		FaultPlan:  plan,
		FaultScope: "srv0",
	})
	if err != nil {
		ls.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	t.Cleanup(func() { c.Close() })
	return ds, c
}

// TestSSDFailKeepsStoreDurable trips the scheduled SSD failure with
// fragment writes, then overwrites a drained fragment, writes past it
// and creates a new object on the direct path. Every acknowledged byte
// must be in the log store after the server closes and the store
// reopens: failing the SSD must not take the disk's durability with it.
func TestSSDFailKeepsStoreDurable(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	ds, c := newLogBackedServer(t, dir, true, faults.MustParse(fmt.Sprintf("seed=1; ssdfail=srv0@%d", k)))
	want := map[*File][]byte{} // each file's acknowledged bytes, from offset 0
	write := func(f *File, off int64, data []byte) {
		t.Helper()
		if err := c.WriteAt(f, off, data); err != nil {
			t.Fatalf("write [%d,+%d): %v", off, len(data), err)
		}
		w := want[f]
		if end := off + int64(len(data)); int64(len(w)) < end {
			w = append(w, make([]byte, end-int64(len(w)))...)
		}
		copy(w[off:], data)
		want[f] = w
	}
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range k + 2 {
		write(f, int64(i)*4096, bytes.Repeat([]byte{'A' + byte(i)}, 1024))
	}
	if !ds.SSDFailed() {
		t.Fatalf("SSD not failed after %d fragment writes with ssdfail=srv0@%d", k+2, k)
	}
	if n := ds.Stats().FragmentWrites; n != k {
		t.Fatalf("FragmentWrites = %d, want %d: writes past the trip must take the direct path", n, k)
	}
	write(f, 0, bytes.Repeat([]byte{'Z'}, 2048))           // over a drained fragment
	write(f, 128*1024, bytes.Repeat([]byte{'D'}, 64*1024)) // a full stripe unit
	g, err := c.Create("after", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	write(g, 512, bytes.Repeat([]byte{'N'}, 3000))
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ls, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer ls.Close()
	// With one data server, file f is object f.ID at the same offsets.
	for _, file := range []*File{f, g} {
		w := want[file]
		if n, err := ls.Size(uint64(file.ID)); err != nil || n != int64(len(w)) {
			t.Fatalf("%s: Size = %d, %v after reopen; want %d", file.Name, n, err, len(w))
		}
		got := make([]byte, len(w))
		if err := ls.ReadAt(uint64(file.ID), 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("%s: acknowledged bytes differ after reopen", file.Name)
		}
	}
}

// TestSSDFailCountsFragmentWritesOnly: `ssdfail=srv0@K` counts writes
// into the fragment log, not writes to the store. K direct writes on a
// bridge server, and any number on a server without the bridge, leave
// the SSD up; the K-th fragment write fails it.
func TestSSDFailCountsFragmentWritesOnly(t *testing.T) {
	const k = 5
	spec := fmt.Sprintf("seed=1; ssdfail=srv0@%d", k)
	unit := bytes.Repeat([]byte{0x3C}, 64*1024)

	t.Run("bridge", func(t *testing.T) {
		ds, c := newLogBackedServer(t, t.TempDir(), true, faults.MustParse(spec))
		f, err := c.Create("data", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 2 * k {
			if err := c.WriteAt(f, int64(i)*int64(len(unit)), unit); err != nil {
				t.Fatal(err)
			}
		}
		if st := ds.Stats(); st.FragmentWrites != 0 || ds.SSDFailed() {
			t.Fatalf("after %d direct writes: FragmentWrites = %d, SSDFailed = %v; want 0, false", 2*k, st.FragmentWrites, ds.SSDFailed())
		}
		small := bytes.Repeat([]byte{0xA5}, 1024)
		for i := range k {
			if ds.SSDFailed() {
				t.Fatalf("SSD failed after %d fragment writes, want %d", i, k)
			}
			if err := c.WriteAt(f, int64(i)*4096, small); err != nil {
				t.Fatal(err)
			}
		}
		if !ds.SSDFailed() {
			t.Fatalf("SSD up after %d fragment writes with %s", k, spec)
		}
	})
	t.Run("no-bridge", func(t *testing.T) {
		ds, c := newLogBackedServer(t, t.TempDir(), false, faults.MustParse(spec))
		f, err := c.Create("data", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		small := bytes.Repeat([]byte{0x5A}, 1024)
		for i := range 4 * k {
			if err := c.WriteAt(f, int64(i)*4096, small); err != nil {
				t.Fatal(err)
			}
		}
		if st := ds.Stats(); st.FragmentWrites != 0 || ds.SSDFailed() {
			t.Fatalf("bridge off, %d writes: FragmentWrites = %d, SSDFailed = %v; want 0, false", 4*k, st.FragmentWrites, ds.SSDFailed())
		}
	})
}

// TestLogBackedServerSurvivesRestart: the crash-consistency story the
// logstore adds to pfsnet — close a log-backed server, reopen the same
// directory, and every acknowledged byte is still there.
func TestLogBackedServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*DataServer, string) {
		ls, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Store: ls})
		if err != nil {
			t.Fatal(err)
		}
		return ds, ds.Addr()
	}
	ds, addr := open()
	ms, err := NewMetaServer("127.0.0.1:0", 4096, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := NewClient(ms.Addr())
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5C}, 2000)
	if err := c.WriteAt(f, 100, payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
	ds.Close() // server restart: same store dir, new process lifecycle

	ls, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer ls.Close()
	if st := ls.Stats(); st.Replays != 1 {
		t.Fatalf("Replays = %d, want 1", st.Replays)
	}
	// The object the meta server striped file f onto is object f.ID on
	// the single data server; read it back straight from the store.
	got := make([]byte, len(payload))
	if err := ls.ReadAt(uint64(f.ID), 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("acknowledged bytes lost across server restart")
	}
}

// TestLogBackedServerDrainsBridgeOnClose: with the bridge on, a flagged
// write lives only in the heap fragment log until Close drains it into
// the log store; a reopen of the store's directory finds it there.
func TestLogBackedServerDrainsBridgeOnClose(t *testing.T) {
	dir := t.TempDir()
	ls, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Bridge: true, Store: ls})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 4096)
	if err := c.WriteAt(f, 512, payload); err != nil { // random → log
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := c.ReadAt(f, 512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read mismatch before close")
	}
	c.Close()
	if st := ds.Stats(); st.FragmentWrites != 1 {
		t.Fatalf("FragmentWrites = %d, want 1: the write did not take the bridge", st.FragmentWrites)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ls2, err := logstore.Open(dir, logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	onDisk := make([]byte, len(payload))
	if err := ls2.ReadAt(uint64(f.ID), 512, onDisk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, payload) {
		t.Fatal("Close did not drain the fragment into the log store")
	}
}
