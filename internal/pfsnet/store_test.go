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
	if err := s.WriteAt(1, -1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
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
