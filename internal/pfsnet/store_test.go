package pfsnet

import (
	"bytes"
	"testing"
)

func TestMemStoreSparseSemantics(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	if err := s.WriteAt(1, 100, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if err := s.ReadAt(1, 98, got); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 'h', 'e', 'l', 'l', 'o', 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if n, _ := s.Size(1); n != 105 {
		t.Fatalf("size = %d", n)
	}
	if n, _ := s.Size(2); n != 0 {
		t.Fatalf("missing object size = %d", n)
	}
	if err := s.WriteAt(1, -1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestFileStorePersistsToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(7, 4096, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	if err := s.ReadAt(7, 4096, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted" {
		t.Fatalf("got %q", got)
	}
	// Reads past EOF are zeros.
	tail := make([]byte, 8)
	if err := s.ReadAt(7, 1<<20, tail); err != nil {
		t.Fatal(err)
	}
	for _, b := range tail {
		if b != 0 {
			t.Fatal("EOF read not zero-filled")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the data survives.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got2 := make([]byte, 9)
	if err := s2.ReadAt(7, 4096, got2); err != nil {
		t.Fatal(err)
	}
	if string(got2) != "persisted" {
		t.Fatalf("after reopen got %q", got2)
	}
}

func TestDataServerWithFileStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Bridge: true, Store: fs})
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
		t.Fatal("file-store read mismatch")
	}
	c.Close()
	// Close flushes the log to the file store; reopening must find the
	// data in the object file.
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	onDisk := make([]byte, len(payload))
	if err := fs2.ReadAt(uint64(f.ID), 512, onDisk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, payload) {
		t.Fatal("log flush did not persist the fragment to the object file")
	}
}

func TestClientFlushDrainsLog(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewIBridgeClient(ms.Addr(), 20*1024, 20*1024)
	defer c.Close()
	f, err := c.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 2048)
	if err := c.WriteAt(f, 0, payload); err != nil {
		t.Fatal(err)
	}
	n, err := c.Flush(f)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("flushed %d bytes, want %d", n, len(payload))
	}
	st := ds.Stats()
	if st.FlushedBytes != int64(len(payload)) {
		t.Fatalf("server flushed = %d", st.FlushedBytes)
	}
	// Data still reads back after the mapping is gone.
	got := make([]byte, len(payload))
	if err := c.ReadAt(f, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost by flush")
	}
}
