package pfsnet

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
)

// FuzzReadFrame feeds arbitrary byte streams through the frame reader,
// frame after frame into one reused buffer, as a connection reads them:
// each read must return an error or a frame, never panic, and each
// frame's payload must be its own bytes of the input, whatever frames
// the buffer held before. A frame must also re-encode to exactly its
// input bytes and decode again — into a second buffer, so a payload
// aliasing the first cannot pass the check vacuously.
func FuzzReadFrame(f *testing.F) {
	var hello bytes.Buffer
	writeHello(&hello, opHello)
	f.Add(hello.Bytes())
	var plain bytes.Buffer
	writeFrame(&plain, 42, opWrite, []byte("payload"))
	f.Add(plain.Bytes())
	var traced bytes.Buffer
	vw := newVecWriter(&traced, nil)
	vw.beginFrame(7, opRead, 1, 2, readReq(1, 0, 512), 0)
	vw.flush()
	f.Add(traced.Bytes())
	f.Add(plain.Bytes()[:plain.Len()-3])          // truncated payload
	f.Add([]byte{0, 0, 0, 5, opHello, 0, 0, 0})   // length below 9
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, opRead}) // oversize length
	// A stream whose frames shrink, then grow past the buffer.
	stream := slices.Concat(traced.Bytes(), plain.Bytes(), hello.Bytes(), rawFrame(3, opOK, randBytes(600, 1)))
	f.Add(stream)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf, second []byte
		for start := 0; ; {
			fr, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			end := start + 13 + len(fr.payload)
			if !bytes.Equal(fr.payload, data[start+13:end]) {
				t.Fatalf("frame at byte %d: payload is not its input bytes", start)
			}
			var wire bytes.Buffer
			if werr := writeFrame(&wire, fr.tag, fr.op, fr.payload); werr != nil {
				t.Fatalf("decoded frame does not re-encode: %v", werr)
			}
			if !bytes.Equal(wire.Bytes(), data[start:end]) {
				t.Fatalf("frame at byte %d re-encodes to other bytes", start)
			}
			again, rerr := readFrame(&wire, &second)
			if rerr != nil || again.tag != fr.tag || again.op != fr.op || !bytes.Equal(again.payload, fr.payload) {
				t.Fatalf("re-decode mismatch: %v", rerr)
			}
			start = end
		}
	})
}

// malformedFrames are byte streams no well-formed peer sends: bad
// length words, a truncated frame, an unknown opcode, the two retired
// opcodes, each carrying the body it once had, and reads and writes
// whose range ends past the largest int64 offset.
var malformedFrames = []struct {
	name      string
	raw       []byte
	wantReply bool // opError reply expected; otherwise a clean close
}{
	{"truncated length prefix", []byte{0, 0}, false},
	{"oversize frame", []byte{0xFF, 0xFF, 0xFF, 0xFF, opRead}, false},
	{"zero-length frame", []byte{0, 0, 0, 0}, false},
	{"short payload", []byte{0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 1, opRead, 1, 2, 3}, false},
	{"unknown opcode", rawFrame(1, 0xEE, []byte{9}), true},
	{"retired opcode 5", rawFrame(1, 5, []byte{0, 0, 0, 0, 0, 0, 0, 1}), true},
	{"retired opcode 10", rawFrame(1, 10, []byte{0, 0, 0, 0, 0, 0, 0, 1}), true},
	{"retired opcode 11", rawFrame(1, 11, readReq(1, 0, 512)), true},
	{"write past MaxInt64", rawFrame(1, opWrite, writeReq(1, math.MaxInt64-1, 0, []byte{1, 2, 3, 4})), true},
	{"fragment write past MaxInt64", rawFrame(1, opWrite, writeReq(1, math.MaxInt64-1, 1, []byte{1, 2, 3, 4})), true},
	{"read past MaxInt64", rawFrame(1, opRead, readReq(1, math.MaxInt64-1, 4)), true},
}

// TestServerRejectsMalformedFrames drives raw malformed byte streams at
// a live data server: the server must reply opError (unknown or retired
// opcode, overflowing range) and go on serving reads, or close the
// connection cleanly (corrupt framing), never panic, and never leak the
// connection or wedge the listener.
func TestServerRejectsMalformedFrames(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	for _, tc := range malformedFrames {
		t.Run(tc.name, func(t *testing.T) {
			nc, br := dialV2(t, ds.Addr())
			if _, err := nc.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			if !tc.wantReply {
				// Signal EOF so truncated streams terminate; the server
				// must close its side without a reply.
				nc.(*net.TCPConn).CloseWrite()
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			var buf []byte
			fr, err := readFrame(br, &buf)
			if tc.wantReply {
				if err != nil {
					t.Fatalf("want opError reply, got %v", err)
				}
				if fr.op != opError {
					t.Fatalf("reply opcode = %d, want opError", fr.op)
				}
				// The connection must still serve a read after the error.
				if _, err := nc.Write(rawFrame(2, opRead, readReq(1, 0, 512))); err != nil {
					t.Fatalf("write after error: %v", err)
				}
				fr, err = readFrame(br, &buf)
				if err != nil || fr.tag != 2 || fr.op != opOK {
					t.Fatalf("read after opError: %v tag=%d op=%d", err, fr.tag, fr.op)
				}
			} else if err == nil {
				t.Fatalf("want clean close, got reply op=%d", fr.op)
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

	for round := 0; round < 4; round++ {
		for _, tc := range malformedFrames {
			nc, err := plan.Dial("fuzz", "tcp", ds.Addr(), time.Second)
			if err != nil {
				continue // injected dial fault; the point is server health
			}
			nc.Write(tc.raw) // may be cut short or mangled by the plan
			nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			readFrame(nc, new([]byte)) // drain a reply if one comes; errors are fine
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

// TestMalformedHello sends a hello whose payload is too short to hold a
// version: the server must refuse it with opError and close, without
// panicking and without wedging the server.
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
	if _, err := nc.Write(rawFrame(0, opHello, []byte{1, 2})); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	var buf []byte
	if fr, err := readFrame(br, &buf); err != nil || fr.op != opError {
		t.Fatalf("corrupt hello: reply op %d (%v), want opError", fr.op, err)
	}
	if _, err := readFrame(br, &buf); err != io.EOF {
		t.Fatalf("corrupt hello: connection not closed after opError: %v", err)
	}
	// Server still accepts valid traffic.
	dialV2(t, ds.Addr())
}

// FuzzDataDispatch feeds arbitrary requests to a data server's dispatch,
// bridge on, over a MemStore. Each request must be answered opOK or
// opError, never panic. A write the server acknowledges, into the
// fragment log or the store, must read back: a server must not
// acknowledge a range it cannot serve.
func FuzzDataDispatch(f *testing.F) {
	f.Add(opWrite, writeReq(1, 4096, 1, []byte("fragment")))
	f.Add(opWrite, writeReq(1, 0, 0, []byte("direct")))
	f.Add(opWrite, writeReq(1, math.MaxInt64-1, 0, []byte{1, 2, 3, 4}))
	f.Add(opWrite, writeReq(1, math.MaxInt64-1, 1, []byte{1, 2, 3, 4}))
	f.Add(opWrite, writeReq(1, -1, 1, []byte{1}))
	f.Add(opRead, readReq(1, 0, 512))
	f.Add(opRead, readReq(1, math.MaxInt64-1, 4))
	f.Add(opRead, readReq(1, 0, maxReadLen+1))
	f.Add(byte(5), []byte{0, 0, 0, 0, 0, 0, 0, 1}) // the retired opStat
	f.Add(opFlush, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(byte(0xEE), []byte{9})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		s := &DataServer{bridge: newBridge(true), store: NewMemStore()}
		w := newVecWriter(io.Discard, nil)
		rop, _, _ := s.dispatch(w, op, payload)
		if rop != opOK && rop != opError {
			t.Fatalf("op %d answered with opcode %d", op, rop)
		}
		if op != opWrite || rop != opOK {
			return
		}
		d := dec{b: payload}
		file, off, flags, data := d.u64(), d.i64(), d.u8(), d.bytes()
		if int64(len(data)) > maxReadLen {
			return
		}
		rop, _, got := s.dispatch(w, opRead, readReq(file, off, int64(len(data))))
		if rop != opOK || !bytes.Equal(got[4:], data) {
			t.Fatalf("write [%d,+%d) flags %d acknowledged, but its read back got op %d or other bytes",
				off, len(data), flags, rop)
		}
	})
}
