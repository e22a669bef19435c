package pfs

import (
	"fmt"
	"time"

	"repro/internal/device"
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

// Start issues a request for [off, off+length) with op and runs done
// once every sub-request has completed, from an event of its own at the
// instant of the last reply. done runs after the request's accounting,
// and inline, before Start returns, when length is not positive. done
// is best bound once, so that a request allocates nothing; a process
// issues a request with Proc.Call.
func (c *Client) Start(f *File, op device.Op, off, length int64, done func()) {
	if length <= 0 {
		done()
		return
	}
	c.issue(f, op, off, length).then = done
}

// issue decomposes a request and sends its sub-requests, each from an
// event of its own when its request message reaches its server. The
// caller sets the continuation (parent.then) before any event runs.
func (c *Client) issue(f *File, op device.Op, off, length int64) *parent {
	if off < 0 || off+length > f.Size {
		panic(fmt.Sprintf("pfs: request [%d,%d) outside file %q of size %d", off, off+length, f.Name, f.Size))
	}
	fs := c.fs
	par := fs.newParent()
	par.op, par.length, par.start = op, length, fs.e.Now()
	par.subs, par.sibs = fs.layout.AppendRuns(par.subs[:0], par.sibs[:0], off, length, c.FragmentThreshold)
	subs := par.subs
	random := c.RandomThreshold > 0 && length < c.RandomThreshold

	par.reqID = 0
	if fs.tr != nil {
		fs.nextReq++
		par.reqID = fs.nextReq
	}

	// Each sub-request carries its own completion state (see job).
	jobs := par.setJobs(len(subs))
	net := fs.net
	for i := range subs {
		sub := &subs[i]
		j := &jobs[i]
		j.srv = fs.servers[sub.Server]
		j.served = false
		j.req = IORequest{
			Op:       op,
			FileID:   f.ID,
			ID:       par.reqID,
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
		fs.e.After(net.Delay(sendPayload), j.step)
	}
	return par
}

// finish is the completion event of a request: it accounts for the
// request — the client's statistics, the parent histogram and the
// request's trace span — frees its parent, and runs the continuation.
func (par *parent) finish() {
	fs := par.fs
	lat := fs.e.Now().Sub(par.start)
	st := &fs.stats
	st.Requests++
	st.Bytes[par.op] += par.length
	st.Latency += lat
	st.SubCount += int64(len(par.subs))
	for _, s := range par.subs {
		if s.Fragment {
			st.Fragments++
		}
	}
	if fs.m != nil {
		fs.m.Parent.ObserveDur(lat)
	}
	if fs.tr != nil {
		fs.tr.Span(uint64(par.reqID), 0, 0, opName(par.op), fs.scope, time.Unix(0, int64(par.start)), time.Duration(lat))
	}
	then := par.then
	fs.freeParent(par)
	then()
}

// opName returns a static label for op (no per-request formatting).
func opName(op device.Op) string {
	if op == device.Read {
		return "read"
	}
	return "write"
}
