package pfsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// dialV2 opens a raw connection to addr and runs the hello, returning
// the conn and a reader for its replies.
func dialV2(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := writeHello(nc, opHello); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := readFrame(br, new([]byte))
	if err != nil || fr.op != opOK {
		t.Fatalf("hello: %v op=%d", err, fr.op)
	}
	d := dec{b: fr.payload}
	if ver := d.u32(); d.err != nil || ver != ProtoV2 {
		t.Fatalf("hello reply: version %d (%v), want %d", ver, d.err, ProtoV2)
	}
	return nc, br
}

// rawFrame encodes one request frame.
func rawFrame(tag uint64, op byte, payload []byte) []byte {
	var b bytes.Buffer
	writeFrame(&b, tag, op, payload)
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

// writeReq encodes an opWrite payload; flags 1 marks a fragment.
func writeReq(file uint64, off int64, flags byte, data []byte) []byte {
	var e enc
	e.u64(file)
	e.i64(off)
	e.u8(flags)
	e.bytes(data)
	return e.b
}

// expectReply reads the next reply within timeout and checks its tag and
// opcode, returning the payload.
func expectReply(t *testing.T, nc net.Conn, br *bufio.Reader, timeout time.Duration, tag uint64) []byte {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(timeout))
	fr, err := readFrame(br, new([]byte))
	if err != nil {
		t.Fatalf("reply for tag %d: %v", tag, err)
	}
	if fr.tag != tag || fr.op != opOK {
		t.Fatalf("reply tag %d op %d, want tag %d opOK", fr.tag, fr.op, tag)
	}
	return append([]byte(nil), fr.payload...)
}

// seedBlocks writes n blocks of size bytes to file over nc, under tags
// from tag on, and returns the next free tag. Block i is filled with
// blockByte(file, i).
func seedBlocks(t *testing.T, nc net.Conn, br *bufio.Reader, tag, file uint64, n, size int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		req := writeReq(file, int64(i*size), 0, bytes.Repeat([]byte{blockByte(file, i)}, size))
		if _, err := nc.Write(rawFrame(tag, opWrite, req)); err != nil {
			t.Fatal(err)
		}
		expectReply(t, nc, br, 5*time.Second, tag)
		tag++
	}
	return tag
}

// blockByte is the fill byte of seedBlocks' block i of file.
func blockByte(file uint64, i int) byte { return byte(file<<4) + byte(i+1) }

// checkBlock asserts a read reply carries block i of file as seedBlocks
// wrote it with blocks of size bytes.
func checkBlock(t *testing.T, reply []byte, file uint64, i, size int) {
	t.Helper()
	want := append(binary.BigEndian.AppendUint32(nil, uint32(size)), bytes.Repeat([]byte{blockByte(file, i)}, size)...)
	if !bytes.Equal(reply, want) {
		t.Fatalf("reply does not carry block %d of file %d (%d bytes)", i, file, size)
	}
}

// nameReq encodes an opOpen payload (and, with a size, an opCreate one).
func nameReq(name string, size ...int64) []byte {
	var e enc
	e.str(name)
	for _, n := range size {
		e.i64(n)
	}
	return e.b
}

// TestServerCorksPipelinedBurst: N frames that reach a server in one
// write(2) are executed in order and answered by exactly one writev
// carrying all N replies — reads on a data server, opens on a metadata
// server. The data server answers three bursts on one connection:
// 512 B reads, 4 KiB reads that outgrow the memory the first burst left
// the connection, and 512 B reads again into the memory the second
// left, each reply checked against its own block.
func TestServerCorksPipelinedBurst(t *testing.T) {
	const n = 16
	t.Run("data", func(t *testing.T) {
		reg := obs.NewRegistry()
		ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		nc, br := dialV2(t, ds.Addr())
		tag := seedBlocks(t, nc, br, 1, 7, n, 512)
		tag = seedBlocks(t, nc, br, tag, 8, n, 4096)
		prior := int64(tag - 1) // one writev per seeding write
		for _, b := range []struct {
			file uint64
			size int
		}{{7, 512}, {8, 4096}, {7, 512}} {
			burst := make([][]byte, n)
			for i := range burst {
				burst[i] = rawFrame(tag+uint64(i), opRead, readReq(b.file, int64(i*b.size), int64(b.size)))
			}
			checkCorked(t, reg, "pfsnet.server.", nc, br, tag, prior, burst, func(i int, reply []byte) { checkBlock(t, reply, b.file, i, b.size) })
			tag += n
			prior++
		}
	})
	t.Run("meta", func(t *testing.T) {
		reg := obs.NewRegistry()
		ms, err := NewMetaServerConfig("127.0.0.1:0", 4096, []string{"127.0.0.1:1"}, MetaConfig{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		nc, br := dialV2(t, ms.Addr())
		if _, err := nc.Write(rawFrame(1, opCreate, nameReq("f", 1<<20))); err != nil {
			t.Fatal(err)
		}
		created := expectReply(t, nc, br, 5*time.Second, 1)
		burst := make([][]byte, n)
		for i := range burst {
			burst[i] = rawFrame(2+uint64(i), opOpen, nameReq("f"))
		}
		checkCorked(t, reg, "pfsnet.meta.", nc, br, 2, 1, burst, func(i int, reply []byte) {
			if !bytes.Equal(reply, created) {
				t.Fatalf("open %d reply differs from the create reply", i)
			}
		})
	})
}

// checkCorked sends burst (frames tagged tag, tag+1, ...) in one
// write(2), checks each reply in order, and asserts that the server
// answered with exactly one writev carrying every reply. The server
// made prior writevs on the connection before the burst.
func checkCorked(t *testing.T, reg *obs.Registry, prefix string, nc net.Conn, br *bufio.Reader, tag uint64, prior int64, burst [][]byte, check func(i int, reply []byte)) {
	t.Helper()
	calls := reg.Counter(prefix + "writev_calls")
	frames := reg.Counter(prefix + "writev_frames")
	// The earlier replies' counts land after they are written; wait for
	// the last one before taking the baseline.
	waitCounter(t, calls, prior)
	calls0, frames0 := calls.Value(), frames.Value()
	if _, err := nc.Write(bytes.Join(burst, nil)); err != nil {
		t.Fatal(err)
	}
	for i := range burst {
		check(i, expectReply(t, nc, br, 5*time.Second, tag+uint64(i)))
	}
	waitCounter(t, calls, calls0+1)
	if d := calls.Value() - calls0; d != 1 {
		t.Fatalf("burst of %d frames answered by %d writev calls, want 1", len(burst), d)
	}
	if d := frames.Value() - frames0; d != int64(len(burst)) {
		t.Fatalf("burst writev carried %d frames, want %d", d, len(burst))
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
// arrive together; A's reply must come back while B is still incomplete.
func TestServerNoHostageReply(t *testing.T) {
	// hostage sends a and the first half of b, expects a's reply, then
	// sends b's rest and returns b's reply.
	hostage := func(t *testing.T, nc net.Conn, br *bufio.Reader, tag uint64, a, b []byte) (ra, rb []byte) {
		t.Helper()
		half := len(b) / 2 // past the length word: B's header is visible
		if _, err := nc.Write(append(a, b[:half]...)); err != nil {
			t.Fatal(err)
		}
		ra = expectReply(t, nc, br, 2*time.Second, tag)
		if _, err := nc.Write(b[half:]); err != nil {
			t.Fatal(err)
		}
		return ra, expectReply(t, nc, br, 5*time.Second, tag+1)
	}
	t.Run("noVectored=false", func(t *testing.T) {
		ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		nc, br := dialV2(t, ds.Addr())
		tag := seedBlocks(t, nc, br, 1, 3, 2, 512)
		ra, rb := hostage(t, nc, br, tag,
			rawFrame(tag, opRead, readReq(3, 0, 512)),
			rawFrame(tag+1, opRead, readReq(3, 512, 512)))
		checkBlock(t, ra, 3, 0, 512)
		checkBlock(t, rb, 3, 1, 512)
	})
	t.Run("meta", func(t *testing.T) {
		ms, err := NewMetaServer("127.0.0.1:0", 4096, []string{"127.0.0.1:1"})
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		nc, br := dialV2(t, ms.Addr())
		ra, rb := hostage(t, nc, br, 1,
			rawFrame(1, opCreate, nameReq("a", 4096)),
			rawFrame(2, opCreate, nameReq("b", 4096)))
		if ida, idb := binary.BigEndian.Uint64(ra), binary.BigEndian.Uint64(rb); ida != 1 || idb != 2 {
			t.Fatalf("created ids %d, %d, want 1, 2", ida, idb)
		}
	})
}

// TestServerMetricsOmitClientOnly: in-flight depth and scatter reads
// are client-side mechanisms, so neither a data server nor
// a metadata server publishes them, while a client does.
func TestServerMetricsOmitClientOnly(t *testing.T) {
	srvReg, cliReg := obs.NewRegistry(), obs.NewRegistry()
	ds, err := NewDataServerConfig("127.0.0.1:0", ServerConfig{Obs: srvReg})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ms, err := NewMetaServerConfig("127.0.0.1:0", 4096, []string{ds.Addr()}, MetaConfig{Obs: srvReg})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := NewClient(ms.Addr())
	c.Obs = cliReg
	defer c.Close()
	f, err := c.Create("metrics", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(f, 0, make([]byte, 3*4096)); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadAt(f, 0, make([]byte, 3*4096)); err != nil {
		t.Fatal(err)
	}
	clientOnly := []string{"inflight", "scatter_reads"}
	for name := range srvReg.Snapshot() {
		for _, m := range clientOnly {
			if strings.Contains(name, "."+m) {
				t.Errorf("server registry publishes client-only metric %s", name)
			}
		}
	}
	cli := cliReg.Snapshot()
	for _, name := range []string{"pfsnet.client.inflight", "pfsnet.client.scatter_reads"} {
		if _, ok := cli[name]; !ok {
			t.Errorf("client registry lacks %s", name)
		}
	}
}

// TestStopSeversConnAcceptedDuringStop closes a data server while
// dialers keep connecting, many times over. A connection the listener
// accepted just before it closed, but registered after stop severed the
// open ones, used to be served on forever, and Close waited on it until
// its client hung up. Pooled clients redial while a server stops, so
// Close must return with such a connection still open at the client.
func TestStopSeversConnAcceptedDuringStop(t *testing.T) {
	for i := 0; i < 300; i++ {
		ds, err := NewDataServer("127.0.0.1:0", false)
		if err != nil {
			t.Fatal(err)
		}
		addr := ds.Addr()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var held []net.Conn // open until the dialer stops
				defer func() {
					for _, nc := range held {
						nc.Close()
					}
				}()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if nc, err := net.Dial("tcp", addr); err == nil {
						held = append(held, nc)
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		closed := make(chan struct{})
		go func() { ds.Close(); close(closed) }()
		var hung bool
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			hung = true
		}
		close(stop)
		wg.Wait()
		if hung {
			<-closed
			t.Fatalf("iteration %d: Close waited on a connection accepted during stop", i)
		}
	}
}
