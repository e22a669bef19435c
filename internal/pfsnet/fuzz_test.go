package pfsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faults"
)

// FuzzReadMessage feeds arbitrary byte streams through the framing layer
// at both protocol versions: the decoders must return an error or a
// well-formed frame, never panic, and any frame that survives a decode
// must re-encode to a stream the decoder accepts again.
func FuzzReadMessage(f *testing.F) {
	// Seeds: a valid v1 frame, a valid v2 frame, and the malformed
	// shapes from the table test.
	var v1 bytes.Buffer
	writeMessage(&v1, opRead, []byte{1, 2, 3})
	f.Add(v1.Bytes())
	var v2 bytes.Buffer
	writeFrame(&v2, ProtoV2, 42, opWrite, []byte("payload"))
	f.Add(v2.Bytes())
	f.Add([]byte{0, 0})                           // truncated length prefix
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, opRead}) // oversize length
	f.Add([]byte{0, 0, 0, 100, opRead, 1, 2})     // short payload
	f.Add([]byte{0, 0, 0, 2, 0xEE, 9})            // unknown opcode
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readMessage(bytes.NewReader(data))
		if err == nil {
			// Whatever decoded must round-trip.
			var buf bytes.Buffer
			if werr := writeMessage(&buf, msg.op, msg.payload); werr != nil {
				t.Fatalf("decoded frame does not re-encode: %v", werr)
			}
			again, rerr := readMessage(&buf)
			if rerr != nil || again.op != msg.op || !bytes.Equal(again.payload, msg.payload) {
				t.Fatalf("re-decode mismatch: %v", rerr)
			}
		}
		for _, ver := range []int{ProtoV1, ProtoV2} {
			fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)), ver)
			if err == nil {
				var buf bytes.Buffer
				if werr := writeFrame(&buf, ver, fr.tag, fr.op, fr.payload); werr != nil {
					t.Fatalf("v%d frame does not re-encode: %v", ver, werr)
				}
				again, rerr := readFrame(bufio.NewReader(&buf), ver)
				if rerr != nil || again.tag != fr.tag || again.op != fr.op || !bytes.Equal(again.payload, fr.payload) {
					t.Fatalf("v%d re-decode mismatch: %v", ver, rerr)
				}
				again.release()
				fr.release()
			}
		}
	})
}

// TestServerRejectsMalformedFrames drives raw malformed byte streams at
// a live data server: the server must reply opError (unknown opcode) or
// close the connection cleanly (corrupt framing), never panic, and never
// leak the connection or wedge the listener.
func TestServerRejectsMalformedFrames(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	cases := []struct {
		name      string
		raw       []byte
		wantReply bool // opError reply expected; otherwise a clean close
	}{
		{"truncated length prefix", []byte{0, 0}, false},
		{"oversize frame", []byte{0xFF, 0xFF, 0xFF, 0xFF, opRead}, false},
		{"zero-length frame", []byte{0, 0, 0, 0}, false},
		{"short payload", append([]byte{0, 0, 0, 100, opRead}, 1, 2, 3), false},
		{"unknown opcode", []byte{0, 0, 0, 2, 0xEE, 9}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", ds.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			if !tc.wantReply {
				// Signal EOF so truncated streams terminate; the server
				// must close its side without a reply.
				nc.(*net.TCPConn).CloseWrite()
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			msg, err := readMessage(nc)
			if tc.wantReply {
				if err != nil {
					t.Fatalf("want opError reply, got %v", err)
				}
				if msg.op != opError {
					t.Fatalf("reply opcode = %d, want opError", msg.op)
				}
				// The connection must still be usable after the error.
				var e enc
				e.u64(1)
				if err := writeMessage(nc, opStat, e.b); err != nil {
					t.Fatalf("write after error: %v", err)
				}
				msg, err = readMessage(nc)
				if err != nil || msg.op != opOK {
					t.Fatalf("opStat after opError: %v op=%d", err, msg.op)
				}
			} else if err == nil {
				t.Fatalf("want clean close, got reply op=%d", msg.op)
			} else if err != io.EOF && err != io.ErrUnexpectedEOF {
				// A reset is acceptable too; a deadline timeout is not —
				// that means the server neither replied nor closed.
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("server hung instead of closing: %v", err)
				}
			}
		})
	}

	// No connection leaked: every handler observed its close.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds.connMu.Lock()
		n := len(ds.conns)
		ds.connMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections leaked", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the server still serves a well-formed client.
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	defer c.Close()
	f, err := c.Create("after-garbage", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedFramesThroughFaultyConns replays the malformed-frame
// table through connections wrapped with an armed fault plan (partial
// writes, corruption, latency), so the server sees the table's shapes
// further mangled mid-stream. The server must reply or close within the
// deadline — never hang, never panic — and must stay healthy for a
// clean client afterwards.
func TestMalformedFramesThroughFaultyConns(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	plan := faults.MustParse("seed=13; partial=1/4; corrupt=1/3; latency=1ms@1/2")

	raws := [][]byte{
		{0, 0},                           // truncated length prefix
		{0xFF, 0xFF, 0xFF, 0xFF, opRead}, // oversize frame
		{0, 0, 0, 0},                     // zero-length frame
		append([]byte{0, 0, 0, 100, opRead}, 1, 2, 3), // short payload
		{0, 0, 0, 2, 0xEE, 9},                         // unknown opcode
	}
	for round := 0; round < 4; round++ {
		for _, raw := range raws {
			nc, err := plan.Dial("fuzz", "tcp", ds.Addr(), time.Second)
			if err != nil {
				continue // injected dial fault; the point is server health
			}
			nc.Write(raw) // may be cut short or mangled by the plan
			nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			readMessage(nc) // drain a reply if one comes; errors are fine
			nc.Close()
		}
	}
	if len(plan.Counts()) == 0 {
		t.Fatal("plan injected nothing; test is vacuous")
	}
	// Every handler must observe its close: a frame mangled into a huge
	// length must not pin a connection (and with it the handler) forever.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds.connMu.Lock()
		n := len(ds.conns)
		ds.connMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections leaked after faulty garbage", n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server still serves a well-formed client over a faulty conn
	// path with retries.
	ms, err := NewMetaServer("127.0.0.1:0", 64*1024, []string{ds.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	defer c.Close()
	f, err := c.Create("after-faulty-garbage", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedHello sends a corrupt hello payload: the handshake must
// fail the connection without panicking and without wedging the server.
func TestMalformedHello(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	nc, err := net.Dial("tcp", ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// opHello with a 2-byte payload (u32 required).
	hdr := []byte{0, 0, 0, 3, opHello, 1, 2}
	if _, err := nc.Write(hdr); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server answered a corrupt hello")
	}
	// Server still accepts valid traffic.
	nc2, err := net.Dial("tcp", ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	var e enc
	e.u32(uint32(ProtoV2))
	if err := writeMessage(nc2, opHello, e.b); err != nil {
		t.Fatal(err)
	}
	msg, err := readMessage(nc2)
	if err != nil || msg.op != opOK {
		t.Fatalf("hello after corrupt hello: %v op=%d", err, msg.op)
	}
	var agreed [4]byte
	copy(agreed[:], msg.payload)
	if v := binary.BigEndian.Uint32(agreed[:]); v != ProtoV2 {
		t.Fatalf("agreed version = %d, want %d", v, ProtoV2)
	}
}
