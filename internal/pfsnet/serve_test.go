package pfsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// dialV2 opens a raw connection to addr and negotiates protocol v2 with
// the feature set feats, returning the conn and a reader for its replies.
func dialV2(t *testing.T, addr string, feats uint32) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	var e enc
	e.u32(ProtoV2)
	e.u32(feats)
	if err := writeMessage(nc, opHello, e.b); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := readMessage(br)
	if err != nil || msg.op != opOK {
		t.Fatalf("hello: %v op=%d", err, msg.op)
	}
	d := dec{b: msg.payload}
	if ver, got := d.u32(), d.u32(); d.err != nil || ver != ProtoV2 || got != feats {
		t.Fatalf("hello reply: version %d features %#x (%v), want %d and %#x", ver, got, d.err, ProtoV2, feats)
	}
	return nc, br
}

// rawFrame encodes one v2 request frame.
func rawFrame(tag uint64, op byte, payload []byte) []byte {
	var b bytes.Buffer
	writeFrame(&b, ProtoV2, tag, op, payload)
	return b.Bytes()
}

// readReq encodes an opRead payload.
func readReq(file uint64, off, n int64) []byte {
	var e enc
	e.u64(file)
	e.i64(off)
	e.i64(n)
	return e.b
}

// expectReply reads the next reply within timeout and checks its tag and
// opcode, returning the payload.
func expectReply(t *testing.T, nc net.Conn, br *bufio.Reader, timeout time.Duration, tag uint64) []byte {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(timeout))
	fr, err := readFrame(br, ProtoV2)
	if err != nil {
		t.Fatalf("reply for tag %d: %v", tag, err)
	}
	defer fr.release()
	if fr.tag != tag || fr.op != opOK {
		t.Fatalf("reply tag %d op %d, want tag %d opOK", fr.tag, fr.op, tag)
	}
	return append([]byte(nil), fr.payload...)
}

// seedBlocks writes n 512-byte blocks to file over nc, block i filled
// with byte i+1, and returns the next free tag.
func seedBlocks(t *testing.T, nc net.Conn, br *bufio.Reader, file uint64, n int) uint64 {
	t.Helper()
	tag := uint64(1)
	for i := 0; i < n; i++ {
		var e enc
		e.u64(file)
		e.i64(int64(i) * 512)
		e.u8(0)
		e.bytes(bytes.Repeat([]byte{byte(i + 1)}, 512))
		if _, err := nc.Write(rawFrame(tag, opWrite, e.b)); err != nil {
			t.Fatal(err)
		}
		expectReply(t, nc, br, 5*time.Second, tag)
		tag++
	}
	return tag
}

// checkBlock asserts a read reply carries block i as seedBlocks wrote it.
func checkBlock(t *testing.T, reply []byte, i int) {
	t.Helper()
	want := append(binary.BigEndian.AppendUint32(nil, 512), bytes.Repeat([]byte{byte(i + 1)}, 512)...)
	if !bytes.Equal(reply, want) {
		t.Fatalf("reply %d does not carry block %d", i, i)
	}
}

// TestServerCorksPipelinedBurst: N read frames that reach the server in
// one write(2) are executed in order and answered by exactly one writev
// carrying all N replies.
func TestServerCorksPipelinedBurst(t *testing.T) {
	reg := obs.NewRegistry()
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	nc, br := dialV2(t, ds.Addr(), 0)
	const n = 16
	tag := seedBlocks(t, nc, br, 7, n)

	calls := reg.Counter("pfsnet.server.writev_calls")
	frames := reg.Counter("pfsnet.server.writev_frames")
	// The seed writes' counts land after their replies are written; wait
	// for the last one before taking the baseline.
	waitCounter(t, calls, int64(tag-1))
	calls0, frames0 := calls.Value(), frames.Value()

	var burst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, rawFrame(tag+uint64(i), opRead, readReq(7, int64(i)*512, 512))...)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		checkBlock(t, expectReply(t, nc, br, 5*time.Second, tag+uint64(i)), i)
	}
	waitCounter(t, calls, calls0+1)
	if d := calls.Value() - calls0; d != 1 {
		t.Fatalf("burst of %d reads answered by %d writev calls, want 1", n, d)
	}
	if d := frames.Value() - frames0; d != n {
		t.Fatalf("burst writev carried %d frames, want %d", d, n)
	}
}

// waitCounter polls c until it reaches want (or fails after 5 s).
func waitCounter(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerNoHostageReply: a reply is flushed before the server blocks
// on a partially arrived frame. Frame A and the first half of frame B
// arrive together; A's reply must come back while B is still incomplete,
// on both reply paths.
func TestServerNoHostageReply(t *testing.T) {
	for _, noVec := range []bool{false, true} {
		t.Run(fmt.Sprintf("noVectored=%v", noVec), func(t *testing.T) {
			ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{DisableVectored: noVec})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			nc, br := dialV2(t, ds.Addr(), 0)
			tag := seedBlocks(t, nc, br, 3, 2)

			a := rawFrame(tag, opRead, readReq(3, 0, 512))
			b := rawFrame(tag+1, opRead, readReq(3, 512, 512))
			half := len(b) / 2 // past the length word: B's header is visible
			if _, err := nc.Write(append(a, b[:half]...)); err != nil {
				t.Fatal(err)
			}
			checkBlock(t, expectReply(t, nc, br, 2*time.Second, tag), 0)
			if _, err := nc.Write(b[half:]); err != nil {
				t.Fatal(err)
			}
			checkBlock(t, expectReply(t, nc, br, 5*time.Second, tag+1), 1)
		})
	}
}
