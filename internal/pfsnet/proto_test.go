package pfsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestEncDecRoundTrip property-checks the encoder/decoder pair over
// arbitrary field sequences.
func TestEncDecRoundTrip(t *testing.T) {
	if err := quick.Check(func(a uint64, b int64, c uint32, s string, blob []byte, x byte) bool {
		var e enc
		e.u64(a)
		e.i64(b)
		e.u32(c)
		e.str(s)
		e.bytes(blob)
		e.u8(x)
		d := dec{b: e.b}
		if d.u64() != a || d.i64() != b || d.u32() != c {
			return false
		}
		if d.str() != s || !bytes.Equal(d.bytes(), blob) || d.u8() != x {
			return false
		}
		return d.err == nil && len(d.b) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderNeverPanics feeds random byte soup through every decode
// method; the decoder must flag an error rather than panic or read out
// of bounds.
func TestDecoderNeverPanics(t *testing.T) {
	if err := quick.Check(func(raw []byte, ops []uint8) bool {
		d := dec{b: raw}
		for _, op := range ops {
			switch op % 6 {
			case 0:
				d.u8()
			case 1:
				d.u32()
			case 2:
				d.u64()
			case 3:
				d.i64()
			case 4:
				d.bytes()
			case 5:
				d.str()
			}
		}
		return true // reaching here without panic is the property
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMessageRoundTripProperty frames and unframes random messages.
func TestMessageRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(tag uint64, op byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, tag, op, payload); err != nil {
			return false
		}
		fr, err := readFrame(&buf, new([]byte))
		if err != nil {
			return false
		}
		return fr.tag == tag && fr.op == op && bytes.Equal(fr.payload, payload)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMessageRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, MaxMessage)
	if err := writeFrame(&buf, 1, opWrite, big); err != ErrTooLarge {
		t.Fatalf("oversize write: %v, want ErrTooLarge", err)
	}
}

// Frozen wire bytes. Every peer is built from this tree, so nothing
// negotiates around a layout change: these literals are the protocol.
// They cover the 13-byte header (length counting the bytes after itself,
// tag, opcode), the opcode numbering, the hello, and the trace context
// behind a flagged tag.
const (
	goldenHello      = "0000000d" + "0000000000000000" + "09" + "00000002"
	goldenHelloReply = "0000000d" + "0000000000000000" + "07" + "00000002"
	goldenReadBody   = "0000000000000007" + "0000000000000200" + "0000000000000200"
	goldenRead       = "00000021" + "0102030405060708" + "03" + goldenReadBody
	goldenTracedRead = "00000031" + "8000000000000009" + "03" +
		"1111111111111111" + "2222222222222222" + goldenReadBody
)

// unhex decodes a golden literal.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// vecBytes returns, hex-encoded, the bytes the vectored writer puts on
// the wire for the frames that queue adds to it.
func vecBytes(t *testing.T, queue func(vw *vecWriter) error) string {
	t.Helper()
	var buf bytes.Buffer
	vw := newVecWriter(&buf, nil)
	if err := queue(vw); err != nil {
		t.Fatal(err)
	}
	if err := vw.flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(buf.Bytes())
}

// TestWireGolden pins the byte layout of the hello, a plain request and
// a traced request against the encoders that write them, then drives
// the same literals at a live data server: it must answer the hello with
// the golden reply and serve the plain and traced reads.
func TestWireGolden(t *testing.T) {
	var hello, reply bytes.Buffer
	writeHello(&hello, opHello)
	writeHello(&reply, opOK)
	for _, tc := range []struct{ name, got, want string }{
		{"hello", hex.EncodeToString(hello.Bytes()), goldenHello},
		{"hello reply", hex.EncodeToString(reply.Bytes()), goldenHelloReply},
		{"read", vecBytes(t, func(vw *vecWriter) error {
			return vw.writeFrame(0x0102030405060708, opRead, readReq(7, 512, 512), nil)
		}), goldenRead},
		{"traced read", vecBytes(t, func(vw *vecWriter) error {
			return vw.beginFrame(9, opRead, 0x1111111111111111, 0x2222222222222222, readReq(7, 512, 512), 0)
		}), goldenTracedRead},
		// A batch that outgrows the writer's first arena.
		{"200 reads", vecBytes(t, func(vw *vecWriter) error {
			for range 200 {
				if err := vw.writeFrame(0x0102030405060708, opRead, readReq(7, 512, 512), nil); err != nil {
					return err
				}
			}
			return nil
		}), strings.Repeat(goldenRead, 200)},
	} {
		if tc.got != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, tc.got, tc.want)
		}
	}

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
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(unhex(t, goldenHello)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(goldenHelloReply)/2)
	if _, err := io.ReadFull(nc, got); err != nil || hex.EncodeToString(got) != goldenHelloReply {
		t.Fatalf("hello reply %x (%v), want %s", got, err, goldenHelloReply)
	}
	br := bufio.NewReader(nc)
	seedBlocks(t, nc, br, 1, 7, 2, 512)
	var burst []byte
	for _, g := range []string{goldenRead, goldenTracedRead} {
		burst = append(burst, unhex(t, g)...)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	checkBlock(t, expectReply(t, nc, br, 5*time.Second, 0x0102030405060708), 7, 1, 512)
	checkBlock(t, expectReply(t, nc, br, 5*time.Second, 9), 7, 1, 512)
}

// helloFrame encodes a hello asking for protocol version ver.
func helloFrame(ver uint32) []byte {
	b := make([]byte, 13+4)
	putHeader(b, 4, 0, opHello)
	binary.BigEndian.PutUint32(b[13:], ver)
	return b
}

// expectClosed reads nc until it fails and requires that failure to be
// the peer closing (EOF or a reset) within the read deadline, not the
// deadline itself.
func expectClosed(t *testing.T, nc net.Conn, sent string, within time.Duration) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(within))
	_, err := io.Copy(io.Discard, nc)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("after %s: connection still open after %v", sent, within)
	}
}

// TestHelloRefusals: a hello for any version but v2 is answered with
// opError and the connection closed; frames a legacy (v1-framing) peer
// would send are refused rather than left hanging; and a client whose
// hello is refused gets the refusal back from its first operation.
func TestHelloRefusals(t *testing.T) {
	ds, err := NewDataServer("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", ds.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return nc
	}
	for _, ver := range []uint32{1, 3} {
		nc := dial()
		if _, err := nc.Write(helloFrame(ver)); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(nc)
		var buf []byte
		fr, err := readFrame(br, &buf)
		if err != nil || fr.op != opError {
			t.Fatalf("hello v%d: reply op %d (%v), want opError", ver, fr.op, err)
		}
		if _, err := readFrame(br, &buf); err != io.EOF {
			t.Fatalf("hello v%d: after opError read %v, want EOF", ver, err)
		}
	}

	// What a legacy peer opens with, in v1 framing (4-byte length, opcode,
	// payload): a bare stat (opcode 5, now retired), and the hellos a client of the old version
	// negotiation sent, with and without a features word.
	for _, raw := range []string{
		"00000009" + "05" + "0000000000000001",
		"00000009" + "09" + "00000002" + "00000003",
		"00000005" + "09" + "00000002",
	} {
		nc := dial()
		if _, err := nc.Write(unhex(t, raw)); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, nc, raw, 2*time.Second)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if fr, err := readFrame(nc, new([]byte)); err == nil {
			writeFrame(nc, fr.tag, opError, errorPayload(errors.New("version refused")))
		}
	}()
	c := NewClient(ln.Addr().String())
	defer c.Close()
	_, err = c.Create("refused", 1<<20)
	if _, ok := err.(remoteError); !ok {
		t.Fatalf("first operation against a refusing peer: %v (%T), want its remoteError", err, err)
	}
}
