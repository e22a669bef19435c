package device

import (
	"testing"
	"testing/quick"
)

func TestRequestBytes(t *testing.T) {
	r := Request{Op: Read, LBN: 10, Sectors: 8}
	if r.Bytes() != 8*SectorSize {
		t.Fatalf("Bytes = %d", r.Bytes())
	}
	if r.End() != 18 {
		t.Fatalf("End = %d", r.End())
	}
}

func TestContiguous(t *testing.T) {
	a := Request{Op: Read, LBN: 0, Sectors: 8}
	b := Request{Op: Read, LBN: 8, Sectors: 8}
	c := Request{Op: Write, LBN: 8, Sectors: 8}
	d := Request{Op: Read, LBN: 9, Sectors: 8}
	if !a.Contiguous(b) {
		t.Fatal("adjacent same-op requests not contiguous")
	}
	if a.Contiguous(c) {
		t.Fatal("cross-op requests reported contiguous")
	}
	if a.Contiguous(d) {
		t.Fatal("gapped requests reported contiguous")
	}
	if b.Contiguous(a) {
		t.Fatal("contiguity is not symmetric; b precedes a")
	}
}

func TestContiguousProperty(t *testing.T) {
	if err := quick.Check(func(lbn int64, sectors uint16) bool {
		n := int64(sectors%512) + 1
		lbn &= 0xFFFFFFFF
		a := Request{Op: Write, LBN: lbn, Sectors: n}
		b := Request{Op: Write, LBN: a.End(), Sectors: 4}
		return a.Contiguous(b) && !b.Contiguous(a)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op strings wrong")
	}
	if got := (Request{Op: Write, LBN: 5, Sectors: 2}).String(); got != "write[5+2]" {
		t.Fatalf("Request.String = %q", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	var s Stats
	s.Ops[Read] = 3
	s.Ops[Write] = 2
	s.Bytes[Read] = 3000
	s.Bytes[Write] = 2000
	if s.TotalOps() != 5 || s.TotalBytes() != 5000 {
		t.Fatalf("totals = %d ops, %d bytes", s.TotalOps(), s.TotalBytes())
	}
}
