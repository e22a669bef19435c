package pfsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// randBytes returns n seeded pseudo-random bytes.
func randBytes(n int, seed uint64) []byte {
	rng := sim.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

// TestWriteFrameBorrowsData pins the client's write frame: its data
// rides as an iovec that is the caller's own slice — not a copy, and
// not a buffer the writer owns or releases — and the bytes on the wire
// are those of the single-buffer frame, plain and traced.
func TestWriteFrameBorrowsData(t *testing.T) {
	f := &File{ID: 7}
	sub := stripe.Sub{ServerOff: 1 << 20, Length: 4096}
	data := randBytes(4096, 1)
	whole := append(encodeWrite(f, sub, false), data...)
	for _, traced := range []bool{false, true} {
		var wire, want bytes.Buffer
		reg := obs.NewRegistry()
		vw := newVecWriter(&wire, newClientWireMetrics(reg))
		var err error
		if traced {
			err = vw.writeFrameCtx(9, opWrite, 1, 2, encodeWrite(f, sub, false), data)
			ref := newVecWriter(&want, nil)
			ref.writeFrameCtx(9, opWrite, 1, 2, whole, nil)
			ref.flush()
		} else {
			err = vw.writeFrame(9, opWrite, encodeWrite(f, sub, false), data)
			writeFrame(&want, 9, opWrite, whole)
		}
		if err != nil {
			t.Fatal(err)
		}
		aliased := 0
		for _, b := range vw.bufs {
			if len(b) == len(data) && &b[0] == &data[0] {
				aliased++
			}
		}
		if aliased != 1 {
			t.Fatalf("traced=%v: %d queued iovecs alias the caller's data, want 1", traced, aliased)
		}
		for _, b := range vw.owned {
			if &b[0] == &data[0] {
				t.Fatalf("traced=%v: the writer owns the borrowed data", traced)
			}
		}
		if got := reg.Counter("pfsnet.client.copy_avoided_bytes").Value(); got != int64(len(data)) {
			t.Fatalf("traced=%v: copy_avoided_bytes = %d, want %d", traced, got, len(data))
		}
		if err := vw.flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), want.Bytes()) {
			t.Fatalf("traced=%v: borrowed-data frame differs from the single-buffer frame", traced)
		}
	}
}

// countingReader sits under a frame reader's bufio.Reader and sorts
// the bytes it delivers by where they went: a read of at most
// connBufSize is a bufio fill (staged in the buffer, then copied out),
// a longer one is bufio's bypass straight into the caller's
// destination. A bypass read of exactly connBufSize would count as a
// fill, so the split can only overstate the staged bytes.
type countingReader struct {
	r              io.Reader
	staged, direct int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if len(p) <= connBufSize {
		c.staged += n
	} else {
		c.direct += n
	}
	return n, err
}

// TestFrameReadersBypassBuffer shows that when the socket holds a whole
// 64 KiB frame, at most connBufSize of it passes through the bufio
// buffer of either frame reader — the server's readFrame and the
// client's scatterInto — and the rest is read straight into the
// destination.
func TestFrameReadersBypassBuffer(t *testing.T) {
	const plen = 64 << 10
	check := func(name string, cr *countingReader) {
		t.Helper()
		if cr.staged > connBufSize || cr.direct < plen-connBufSize {
			t.Errorf("%s: %d bytes staged in the buffer and %d read direct, want at most %d staged",
				name, cr.staged, cr.direct, connBufSize)
		}
		cr.staged, cr.direct = 0, 0
	}

	t.Run("readFrame", func(t *testing.T) {
		payloads := [][]byte{randBytes(plen, 2), randBytes(plen, 3)}
		var stream bytes.Buffer
		for i, p := range payloads {
			writeFrame(&stream, uint64(i+1), opWrite, p)
		}
		cr := &countingReader{r: &stream}
		br := bufio.NewReaderSize(cr, connBufSize)
		for i, p := range payloads {
			fr, err := readFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if fr.tag != uint64(i+1) || !bytes.Equal(fr.payload, p) {
				t.Fatalf("frame %d read back wrong", i)
			}
			fr.release()
			check("readFrame", cr)
		}
	})

	t.Run("scatterInto", func(t *testing.T) {
		data := randBytes(plen, 4)
		var stream bytes.Buffer
		reply := binary.BigEndian.AppendUint32(nil, plen)
		writeFrame(&stream, 5, opOK, append(reply, data...))
		cr := &countingReader{r: &stream}
		c := &conn{br: bufio.NewReaderSize(cr, connBufSize)}
		var hdr [13]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, plen)
		n, err := c.scatterInto(dst, int(binary.BigEndian.Uint32(hdr[:4]))-9)
		if err != nil {
			t.Fatal(err)
		}
		if n != plen || !bytes.Equal(dst, data) {
			t.Fatal("scattered data differs")
		}
		check("scatterInto", cr)
	})
}

// TestCopyAvoidedCountsOnlyUncopiedBytes pins pfsnet.client.copy_avoided_bytes
// to the data bytes no user-space copy touched: a striped 256 KiB
// WriteAt moves it by exactly its data (borrowed, headers excluded), and
// a 256 KiB ReadAt by exactly the bytes scattered into the caller's
// buffer.
func TestCopyAvoidedCountsOnlyUncopiedBytes(t *testing.T) {
	const n = 256 << 10
	c := NewClient(testCluster(t, 4, 64<<10, false))
	c.Obs = obs.NewRegistry()
	defer c.Close()
	f, err := c.Create("avoided", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctr := c.Obs.Counter("pfsnet.client.copy_avoided_bytes")
	data := randBytes(n, 5)
	before := ctr.Value()
	if err := c.WriteAt(f, 0, data); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Value() - before; got != n {
		t.Fatalf("WriteAt of %d bytes moved copy_avoided_bytes by %d", n, got)
	}
	got := make([]byte, n)
	before = ctr.Value()
	if err := c.ReadAt(f, 0, got); err != nil {
		t.Fatal(err)
	}
	if moved := ctr.Value() - before; moved != n {
		t.Fatalf("ReadAt of %d bytes moved copy_avoided_bytes by %d", n, moved)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs")
	}
}

// stallConn is a client socket whose vectored write holds its batch
// until the test releases it — the way a writev can still be reading
// the caller's bytes after the connection has been given up on. Close
// does not end the stall. On release it reads every iovec (so the race
// detector sees the borrowed data's last use) and fails.
type stallConn struct {
	net.Conn
	entered  chan struct{}
	enter    sync.Once
	release  chan struct{}
	returned atomic.Bool
	sum      uint32
}

func (s *stallConn) WriteBuffers(v *net.Buffers) (int64, error) {
	s.enter.Do(func() { close(s.entered) })
	<-s.release
	for _, b := range *v {
		s.sum = crc32.Update(s.sum, crc32.IEEETable, b)
	}
	s.returned.Store(true)
	return 0, errors.New("stalled write abandoned")
}

// TestWriteFenceWaitsForWriter holds a write's batch in WriteBuffers
// well past the connection's I/O timeout, and requires that WriteAt
// neither returns nor resends until WriteBuffers has returned: the
// caller's buffer stays borrowed for as long as a write may read it.
func TestWriteFenceWaitsForWriter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan bool, 4) // WriteBuffers had returned at the resend
	sc := &stallConn{entered: make(chan struct{}), release: make(chan struct{})}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- sc.returned.Load()
			nc.Close() // the resend's hello fails: a transport error
		}
	}()

	c := NewClient("")
	c.IOTimeout = 50 * time.Millisecond
	c.MaxRetries = 1
	c.RetryBackoff = time.Millisecond
	c.BreakerThreshold = -1
	defer c.Close()
	addr := ln.Addr().String()
	client, peer := net.Pipe()
	defer peer.Close()
	sc.Conn = client
	pr, _ := c.checkout(addr)
	c.checkin(pr, newConn(sc, c.dialOpts(nil)))
	f := &File{ID: 1, Name: "fence", Size: 1 << 20,
		layout: stripe.Layout{Unit: 64 << 10, Servers: 1}, servers: []string{addr}}

	p := randBytes(256<<10, 6)
	done := make(chan bool)
	go func() {
		err := c.WriteAt(f, 0, p)
		if err == nil {
			t.Error("WriteAt over a dead connection succeeded")
		}
		done <- sc.returned.Load()
	}()
	<-sc.entered
	select {
	case <-done:
		t.Fatal("WriteAt returned while WriteBuffers still held its data")
	case <-accepted:
		t.Fatal("WriteAt resent while WriteBuffers still held its data")
	case <-time.After(200 * time.Millisecond):
	}
	close(sc.release)
	if !<-done {
		t.Fatal("WriteAt returned before WriteBuffers did")
	}
	clear(p) // the caller owns its buffer again
	select {
	case ok := <-accepted:
		if !ok {
			t.Fatal("resend dialled before WriteBuffers returned")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no resend after the writer exited")
	}
}
