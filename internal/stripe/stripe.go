// Package stripe implements the round-robin file striping used by PVFS2
// and the client-side decomposition of file requests into per-server
// requests, including the fragment identification that iBridge adds in
// the client (the paper instruments io_datafile_setup_msgpairs for this).
//
// A file's logical byte space is divided into fixed-size striping units;
// unit k lives on server k mod N at server-local offset (k div N)·unit +
// intra-unit offset. A request that is not aligned to unit boundaries
// yields first/last sub-requests smaller than the unit — the *fragments*
// whose inefficient disk service the paper measures and iBridge repairs.
//
// Decompose gives a request's units; AppendRuns gives what a client
// sends: each server one contiguous region of its object per request,
// as PVFS2 does, cut only at flagged fragments and at MaxRun. Both the
// simulated client (internal/pfs) and the live one (internal/pfsnet)
// send AppendRuns' runs.
package stripe

import (
	"fmt"
	"slices"
)

// Layout describes how a file is striped.
type Layout struct {
	// Unit is the striping unit size in bytes (64 KB by default in
	// PVFS2 and throughout the paper).
	Unit int64
	// Servers is the number of data servers the file is striped over.
	Servers int
}

// DefaultUnit is the PVFS2 default striping unit used in the paper.
const DefaultUnit = 64 * 1024

// Sub is one sub-request of a decomposed file request, addressed to a
// single data server.
type Sub struct {
	// Server is the index of the data server holding this piece.
	Server int
	// ServerOff is the offset within the server-local object.
	ServerOff int64
	// FileOff is the offset in the logical file.
	FileOff int64
	// Length is the sub-request length in bytes.
	Length int64
	// Fragment marks a sub-request that iBridge's client side flags:
	// it belongs to a parent spanning multiple servers and is smaller
	// than the fragment threshold. Set by Decompose when a threshold
	// is supplied via DecomposeFlagged.
	Fragment bool
	// Siblings lists the servers holding the other sub-requests of the
	// same parent (set only on fragments; passed to the data server so
	// it can evaluate the striping magnification effect).
	Siblings []int
}

func (s Sub) String() string {
	tag := ""
	if s.Fragment {
		tag = " frag"
	}
	return fmt.Sprintf("srv%d[%d+%d]%s", s.Server, s.ServerOff, s.Length, tag)
}

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	if l.Unit <= 0 {
		return fmt.Errorf("stripe: unit %d must be positive", l.Unit)
	}
	if l.Servers <= 0 {
		return fmt.Errorf("stripe: server count %d must be positive", l.Servers)
	}
	return nil
}

// Locate maps a logical file offset to its (server, server-local offset).
func (l Layout) Locate(off int64) (server int, serverOff int64) {
	unitIdx := off / l.Unit
	server = int(unitIdx % int64(l.Servers))
	serverOff = (unitIdx/int64(l.Servers))*l.Unit + off%l.Unit
	return server, serverOff
}

// ServerBytes returns how many bytes of a file of the given total length
// land on each server.
func (l Layout) ServerBytes(fileLen int64) []int64 {
	out := make([]int64, l.Servers)
	fullUnits := fileLen / l.Unit
	for s := range out {
		n := fullUnits / int64(l.Servers)
		if int64(s) < fullUnits%int64(l.Servers) {
			n++
		}
		out[s] = n * l.Unit
	}
	if rem := fileLen % l.Unit; rem > 0 {
		s := int((fileLen / l.Unit) % int64(l.Servers))
		out[s] += rem
	}
	return out
}

// Decompose splits the request [off, off+length) into sub-requests in
// file order, one per striping unit the request touches, whatever the
// number of servers. A client sends runs of them instead (AppendRuns).
func (l Layout) Decompose(off, length int64) []Sub {
	return l.DecomposeFlagged(off, length, 0)
}

// DecomposeFlagged decomposes like Decompose and additionally applies the
// iBridge client-side fragment rule: with threshold > 0, a sub-request is
// flagged as a fragment when the parent touches two or more servers and
// the sub-request is smaller than threshold bytes. Flagged subs carry the
// identifiers of the servers holding their siblings.
func (l Layout) DecomposeFlagged(off, length int64, threshold int64) []Sub {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	var subs []Sub
	if length > 0 {
		subs = make([]Sub, 0, (off+length-1)/l.Unit-off/l.Unit+1)
	}
	flagging := l.flagging(off, length, threshold)
	for pos, end := off, off+length; pos < end; {
		n := min(l.Unit-pos%l.Unit, end-pos)
		server, serverOff := l.Locate(pos)
		subs = append(subs, Sub{Server: server, ServerOff: serverOff, FileOff: pos, Length: n,
			Fragment: flagging && n < threshold})
		pos += n
	}
	appendSiblings(subs, nil)
	return subs
}

// MaxRun caps the bytes of one run. A run is one request frame on the
// wire and, on a log-backed data server, one store record, so the cap
// keeps both far below their limits and bounds the payload buffer of
// the server connection that reads it.
const MaxRun = 1 << 20

// AppendRuns appends the runs of the request [off, off+length) to dst,
// one Sub per run: a contiguous range of one server's object, which a
// client sends the server as one request. Servers come in the order the
// request first touches them, and each server's runs in object order.
//
// A server's units of one request lie back to back in its object, so
// its share of the request is one region, and a run carries as much of
// it as it can. A flagged fragment (as DecomposeFlagged flags it) is
// always a run of its own, and no run is longer than MaxRun, however
// many servers the file has. A run's FileOff is the file offset of its
// first byte; its later bytes follow in the file a unit at a time, each
// unit Unit·Servers past the one before.
//
// Each fragment's Siblings lists the servers of the request's other
// runs; the lists are appended to sibs. Both grown buffers are returned
// for the caller to reuse (pass dst[:0], sibs[:0]). Each Siblings is a
// capacity-clipped window of sibs, so appending to one never writes into
// another's; they stay valid until the caller reuses sibs.
func (l Layout) AppendRuns(dst []Sub, sibs []int, off, length, threshold int64) ([]Sub, []int) {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if length <= 0 {
		return dst, sibs
	}
	first := len(dst)
	flagging := l.flagging(off, length, threshold)
	firstUnit, lastUnit := off/l.Unit, (off+length-1)/l.Unit
	touched := min(lastUnit-firstUnit+1, int64(l.Servers))
	dst = slices.Grow(dst, int(touched))
	for u0 := firstUnit; u0 < firstUnit+touched; u0++ {
		own := len(dst) // this server's first run
		for u := u0; u <= lastUnit; u += int64(l.Servers) {
			pos := max(off, u*l.Unit)
			n := min(off+length, (u+1)*l.Unit) - pos
			frag := flagging && n < threshold
			for n > 0 {
				// The server's previous run ends where this unit starts
				// in its object; a new run starts only where it must.
				k := len(dst) - 1
				if k < own || frag || dst[k].Fragment || dst[k].Length >= MaxRun {
					server, serverOff := l.Locate(pos)
					dst = append(dst, Sub{Server: server, ServerOff: serverOff, FileOff: pos, Fragment: frag})
					k++
				}
				add := min(n, MaxRun-dst[k].Length)
				dst[k].Length += add
				pos, n = pos+add, n-add
			}
		}
	}
	return dst, appendSiblings(dst[first:], sibs)
}

// flagging reports whether the request [off, off+length) has its short
// pieces flagged at threshold: it must touch two or more servers.
func (l Layout) flagging(off, length, threshold int64) bool {
	return threshold > 0 && l.Servers > 1 && (off+length-1)/l.Unit > off/l.Unit
}

// appendSiblings gives each fragment of subs, one request's pieces, the
// servers of the other pieces as its Siblings, appended to sibs.
func appendSiblings(subs []Sub, sibs []int) []int {
	frags := 0
	for _, s := range subs {
		if s.Fragment {
			frags++
		}
	}
	sibs = slices.Grow(sibs, frags*(len(subs)-1))
	for i := range subs {
		if !subs[i].Fragment {
			continue
		}
		from := len(sibs)
		for j, s := range subs {
			if j != i {
				sibs = append(sibs, s.Server)
			}
		}
		subs[i].Siblings = sibs[from:len(sibs):len(sibs)]
	}
	return sibs
}
