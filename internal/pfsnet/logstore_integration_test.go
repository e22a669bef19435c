package pfsnet

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/logstore"
)

// These tests pin the DurableStore integration: a data server backed by
// internal/logstore must honor `ssdfail=SCOPE@N` fault specs by
// counting the store's record appends (not only legacy fragment-log
// writes), fail the store's device together with the bridge log, and
// keep serving every acknowledged byte afterwards.

func newLogBackedServer(t *testing.T, bridge bool, plan *faults.Plan, scope string) (*DataServer, *logstore.LogStore) {
	t.Helper()
	ls, err := logstore.Open(t.TempDir(), logstore.Config{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{
		Bridge:     bridge,
		Store:      ls,
		FaultPlan:  plan,
		FaultScope: scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, ls
}

// TestSSDFailCountsLogstoreAppends: with bridge off, every write is a
// direct-path store append — the legacy fragment-write counter never
// moves, so only the record-append accounting can trip the scheduled
// failure.
func TestSSDFailCountsLogstoreAppends(t *testing.T) {
	plan, err := faults.Parse("seed=1; ssdfail=srv0@5")
	if err != nil {
		t.Fatal(err)
	}
	ds, ls := newLogBackedServer(t, false, plan, "srv0")
	ms, err := NewMetaServer("127.0.0.1:0", 4096, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	c := NewClient(ms.Addr())
	defer c.Close()
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	block := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i + 1)}, 512)
	}
	for i := 0; i < 8; i++ {
		if err := c.WriteAt(f, int64(i)*512, block(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !ds.SSDFailed() {
		t.Fatal("server SSD not failed after 8 direct-path appends with ssdfail=srv0@5")
	}
	if !ls.DeviceFailed() {
		t.Fatal("logstore device not failed with the server SSD")
	}
	if ds.Stats().FragmentWrites != 0 {
		t.Fatalf("FragmentWrites = %d on a non-bridge server", ds.Stats().FragmentWrites)
	}
	// Degraded, not broken: every acknowledged byte still reads back,
	// and new writes land in the overlay.
	got := make([]byte, 512)
	for i := 0; i < 8; i++ {
		if err := c.ReadAt(f, int64(i)*512, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, block(i)) {
			t.Fatalf("block %d corrupted after device failure", i)
		}
	}
	if err := c.WriteAt(f, 8*512, block(8)); err != nil {
		t.Fatalf("post-failure write: %v", err)
	}
	if err := c.ReadAt(f, 8*512, got); err != nil || !bytes.Equal(got, block(8)) {
		t.Fatalf("post-failure write not readable: %v", err)
	}
}

// TestSSDFailBridgeAndLogstoreShareBudget: on a bridge server the
// fragment-log writes and the store's record appends share one ssdfail
// budget, and tripping it drains the bridge log into the store before
// the store's device fails — no acknowledged byte lost.
func TestSSDFailBridgeAndLogstoreShareBudget(t *testing.T) {
	plan, err := faults.Parse("seed=1; ssdfail=srv0@6")
	if err != nil {
		t.Fatal(err)
	}
	ds, ls := newLogBackedServer(t, true, plan, "srv0")
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	// Fragment threshold 20KB: small writes inside a striped parent are
	// flagged and land in the bridge log; Flush drains them through the
	// store (appending records that count toward the same budget).
	c := NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	defer c.Close()
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 1024)
	for i := 0; i < 4; i++ {
		if err := c.WriteAt(f, int64(i)*1024, payload); err != nil {
			t.Fatalf("fragment write %d: %v", i, err)
		}
	}
	if _, err := c.Flush(f); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if ds.Stats().FragmentWrites == 0 {
		t.Fatal("no fragment writes recorded — bridge path not exercised")
	}
	// The drain's record appends plus the fragment writes crossed the
	// budget of 6; keep writing until the trip is visible (the check
	// happens on write paths).
	for i := 4; i < 12 && !ds.SSDFailed(); i++ {
		if err := c.WriteAt(f, int64(i)*1024, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !ds.SSDFailed() || !ls.DeviceFailed() {
		t.Fatalf("SSDFailed=%v DeviceFailed=%v after budget crossed", ds.SSDFailed(), ls.DeviceFailed())
	}
	got := make([]byte, 1024)
	for i := 0; i < 4; i++ {
		if err := c.ReadAt(f, int64(i)*1024, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("fragment %d lost across drain + device failure", i)
		}
	}
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
