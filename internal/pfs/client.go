package pfs

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
)

// Client issues file requests against a FileSystem. It performs the
// PVFS2-style client-side decomposition of a request into per-server
// runs (stripe.Layout.AppendRuns), one contiguous region of each
// server's object, and, when a fragment threshold is configured (iBridge
// mode), flags fragments, each a run of its own, and attaches
// sibling-server lists.
//
// Clients are cheap handles: create one per simulated MPI rank or share
// one; they keep no per-request state.
type Client struct {
	fs *FileSystem
	// FragmentThreshold enables iBridge client-side flagging when > 0:
	// a sub-request of a multi-server parent smaller than this is
	// marked a fragment.
	FragmentThreshold int64
	// RandomThreshold marks whole requests smaller than this as
	// regular random requests (20 KB in the paper).
	RandomThreshold int64
	// Origin identifies the issuing process context; it propagates to
	// block-level requests so the server-side CFQ scheduler can group
	// them per process. Use WithOrigin to derive per-rank clients.
	Origin int32
}

// WithOrigin returns a copy of the client tagged with the given origin.
func (c *Client) WithOrigin(origin int32) *Client {
	cc := *c
	cc.Origin = origin
	return &cc
}

// NewClient returns a stock client (no iBridge flagging).
func NewClient(fs *FileSystem) *Client {
	return &Client{fs: fs}
}

// NewIBridgeClient returns a client with iBridge fragment flagging at the
// given thresholds.
func NewIBridgeClient(fs *FileSystem, fragmentThreshold, randomThreshold int64) *Client {
	return &Client{fs: fs, FragmentThreshold: fragmentThreshold, RandomThreshold: randomThreshold}
}

// Read issues a synchronous read of [off, off+length) and blocks p until
// every sub-request completes. It returns the request service time.
func (c *Client) Read(p *sim.Proc, f *File, off, length int64) sim.Duration {
	return c.request(p, f, device.Read, off, length)
}

// Write issues a synchronous write of [off, off+length) and blocks p
// until every sub-request completes. It returns the request service time.
func (c *Client) Write(p *sim.Proc, f *File, off, length int64) sim.Duration {
	return c.request(p, f, device.Write, off, length)
}

func (c *Client) request(p *sim.Proc, f *File, op device.Op, off, length int64) sim.Duration {
	if length <= 0 {
		return 0
	}
	if off < 0 || off+length > f.Size {
		panic(fmt.Sprintf("pfs: request [%d,%d) outside file %q of size %d", off, off+length, f.Name, f.Size))
	}
	start := p.Now()
	par := c.fs.newParent(p)
	par.subs, par.sibs = c.fs.layout.AppendRuns(par.subs[:0], par.sibs[:0], off, length, c.FragmentThreshold)
	subs := par.subs
	random := c.RandomThreshold > 0 && length < c.RandomThreshold

	var reqID int64
	if c.fs.tr != nil {
		c.fs.nextReq++
		reqID = c.fs.nextReq
	}

	// Each sub-request carries its own completion state (see job).
	jobs := par.setJobs(len(subs))
	net := c.fs.net
	for i := range subs {
		sub := &subs[i]
		j := &jobs[i]
		j.srv = c.fs.servers[sub.Server]
		j.served = false
		j.req = IORequest{
			Op:       op,
			FileID:   f.ID,
			ID:       reqID,
			Bytes:    sub.Length,
			Fragment: sub.Fragment,
			Siblings: sub.Siblings,
			Random:   random,
			Server:   sub.Server,
			Origin:   c.Origin,
		}
		// Translate the server-local byte extent to sectors on the
		// file's extent at that server.
		base := f.bases[sub.Server]
		startOff := sub.ServerOff
		j.req.LBN = base + startOff/device.SectorSize
		endOff := startOff + sub.Length
		j.req.Sectors = (endOff+device.SectorSize-1)/device.SectorSize - startOff/device.SectorSize

		// Request message: writes carry the data to the server; the
		// reply carries it back for reads.
		sendPayload, replyPayload := int64(64), int64(64)
		if op == device.Write {
			sendPayload += sub.Length
		} else {
			replyPayload += sub.Length
		}
		j.replyDelay = net.Delay(replyPayload)
		c.fs.e.After(net.Delay(sendPayload), j.step)
	}
	p.Block() // until the last reply wakes us

	lat := p.Now().Sub(start)
	st := &c.fs.stats
	st.Requests++
	st.Bytes[op] += length
	st.Latency += lat
	st.SubCount += int64(len(subs))
	for _, s := range subs {
		if s.Fragment {
			st.Fragments++
		}
	}
	if c.fs.m != nil {
		c.fs.m.Parent.ObserveDur(lat)
	}
	if c.fs.tr != nil {
		c.fs.tr.Span(uint64(reqID), 0, 0, opName(op), c.fs.scope, time.Unix(0, int64(start)), time.Duration(lat))
	}
	c.fs.freeParent(par)
	return lat
}

// opName returns a static label for op (no per-request formatting).
func opName(op device.Op) string {
	if op == device.Read {
		return "read"
	}
	return "write"
}
