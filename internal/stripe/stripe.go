// Package stripe implements the round-robin file striping used by PVFS2
// and the client-side decomposition of file requests into per-server
// sub-requests, including the fragment identification that iBridge adds in
// the client (the paper instruments io_datafile_setup_msgpairs for this).
//
// A file's logical byte space is divided into fixed-size striping units;
// unit k lives on server k mod N at server-local offset (k div N)·unit +
// intra-unit offset. A request that is not aligned to unit boundaries
// yields first/last sub-requests smaller than the unit — the *fragments*
// whose inefficient disk service the paper measures and iBridge repairs.
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
// file order, one per striping unit the request touches, except that a
// unit is merged into the sub-request before it when that one is on the
// same server and ends where the unit starts in the server's object.
// That happens only when Servers == 1; with more servers a server's
// units in one request stay separate sub-requests even though they lie
// back to back in its object. Sending each server one contiguous region
// per request, as PVFS2 does, is the live client's job: it coalesces a
// server's consecutive sub-requests into runs (internal/pfsnet).
func (l Layout) Decompose(off, length int64) []Sub {
	return l.AppendDecompose(nil, off, length)
}

// AppendDecompose is Decompose appending the sub-requests to dst, so a
// caller that decomposes request after request can reuse one buffer
// (pass dst[:0]).
func (l Layout) AppendDecompose(dst []Sub, off, length int64) []Sub {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	first := len(dst)
	if length > 0 {
		n := 1 // a single server's units merge into one sub-request
		if l.Servers > 1 {
			n = int((off+length-1)/l.Unit - off/l.Unit + 1)
		}
		dst = slices.Grow(dst, n)
	}
	pos := off
	remaining := length
	for remaining > 0 {
		server, serverOff := l.Locate(pos)
		inUnit := l.Unit - pos%l.Unit
		n := inUnit
		if n > remaining {
			n = remaining
		}
		// Merge with the previous sub if it is contiguous on the same
		// server, which happens only when Servers == 1: with more, the
		// previous sub is always another server's.
		if k := len(dst) - 1; k >= first && dst[k].Server == server &&
			dst[k].ServerOff+dst[k].Length == serverOff {
			dst[k].Length += n
		} else {
			dst = append(dst, Sub{
				Server:    server,
				ServerOff: serverOff,
				FileOff:   pos,
				Length:    n,
			})
		}
		pos += n
		remaining -= n
	}
	return dst
}

// DecomposeFlagged decomposes like Decompose and additionally applies the
// iBridge client-side fragment rule: a sub-request is flagged as a
// fragment when the parent spans more than one server and the sub-request
// is smaller than threshold bytes. Flagged subs carry the identifiers of
// the servers holding their siblings.
func (l Layout) DecomposeFlagged(off, length int64, threshold int64) []Sub {
	subs, _ := l.AppendDecomposeFlagged(nil, nil, off, length, threshold)
	return subs
}

// AppendDecomposeFlagged is DecomposeFlagged appending the sub-requests
// to dst and every fragment's sibling list to sibs; it returns both
// grown buffers for the caller to reuse (pass dst[:0], sibs[:0]). Each
// fragment's Siblings is a capacity-clipped window of sibs, so appending
// to one never writes into another's; they stay valid until the caller
// reuses sibs.
func (l Layout) AppendDecomposeFlagged(dst []Sub, sibs []int, off, length int64, threshold int64) ([]Sub, []int) {
	first := len(dst)
	dst = l.AppendDecompose(dst, off, length)
	subs := dst[first:]
	if len(subs) < 2 {
		return dst, sibs
	}
	frags := 0
	for _, s := range subs {
		if s.Length < threshold {
			frags++
		}
	}
	sibs = slices.Grow(sibs, frags*(len(subs)-1))
	for i := range subs {
		if subs[i].Length >= threshold {
			continue
		}
		subs[i].Fragment = true
		from := len(sibs)
		for j, s := range subs {
			if j != i {
				sibs = append(sibs, s.Server)
			}
		}
		subs[i].Siblings = sibs[from:len(sibs):len(sibs)]
	}
	return dst, sibs
}

// Fragments returns the total number of fragment sub-requests the request
// would produce at the given threshold.
func (l Layout) Fragments(off, length, threshold int64) int {
	n := 0
	for _, s := range l.DecomposeFlagged(off, length, threshold) {
		if s.Fragment {
			n++
		}
	}
	return n
}
