package stripe

import (
	"slices"
	"testing"
	"testing/quick"
)

const kb = 1024

func layout8() Layout { return Layout{Unit: 64 * kb, Servers: 8} }

func TestLocateRoundRobin(t *testing.T) {
	l := layout8()
	cases := []struct {
		off       int64
		server    int
		serverOff int64
	}{
		{0, 0, 0},
		{64 * kb, 1, 0},
		{7 * 64 * kb, 7, 0},
		{8 * 64 * kb, 0, 64 * kb},
		{64*kb + 100, 1, 100},
		{9*64*kb + 5, 1, 64*kb + 5},
	}
	for _, c := range cases {
		srv, soff := l.Locate(c.off)
		if srv != c.server || soff != c.serverOff {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", c.off, srv, soff, c.server, c.serverOff)
		}
	}
}

func TestDecomposeAligned(t *testing.T) {
	l := layout8()
	subs := l.Decompose(0, 64*kb)
	if len(subs) != 1 {
		t.Fatalf("aligned request decomposed into %d subs: %v", len(subs), subs)
	}
	s := subs[0]
	if s.Server != 0 || s.ServerOff != 0 || s.Length != 64*kb {
		t.Fatalf("sub = %+v", s)
	}
}

func TestDecomposeUnalignedSize(t *testing.T) {
	// Pattern II of the paper: 65 KB request at offset 0 → one 64 KB
	// sub plus a 1 KB fragment on the next server.
	l := layout8()
	subs := l.Decompose(0, 65*kb)
	if len(subs) != 2 {
		t.Fatalf("got %d subs: %v", len(subs), subs)
	}
	if subs[0].Length != 64*kb || subs[0].Server != 0 {
		t.Fatalf("first sub %+v", subs[0])
	}
	if subs[1].Length != 1*kb || subs[1].Server != 1 || subs[1].ServerOff != 0 {
		t.Fatalf("second sub %+v", subs[1])
	}
}

func TestDecomposeUnalignedOffset(t *testing.T) {
	// Pattern III: 64 KB request shifted by 1 KB → 63 KB + 1 KB across
	// two servers.
	l := layout8()
	subs := l.Decompose(1*kb, 64*kb)
	if len(subs) != 2 {
		t.Fatalf("got %d subs: %v", len(subs), subs)
	}
	if subs[0].Length != 63*kb || subs[1].Length != 1*kb {
		t.Fatalf("lengths = %d, %d", subs[0].Length, subs[1].Length)
	}
	if subs[0].Server != 0 || subs[1].Server != 1 {
		t.Fatalf("servers = %d, %d", subs[0].Server, subs[1].Server)
	}
	if subs[1].ServerOff != 0 {
		t.Fatalf("fragment serverOff = %d, want 0", subs[1].ServerOff)
	}
}

func TestDecomposeLargeRequest(t *testing.T) {
	// A request of k units + 1 KB touches k+1 servers (the paper's
	// striping magnification setup before Figure 3).
	l := layout8()
	for k := int64(1); k <= 7; k++ {
		subs := l.Decompose(0, k*64*kb+1*kb)
		if int64(len(subs)) != k+1 {
			t.Fatalf("k=%d: %d subs, want %d", k, len(subs), k+1)
		}
		last := subs[len(subs)-1]
		if last.Length != 1*kb {
			t.Fatalf("k=%d: trailing fragment %d bytes, want 1KB", k, last.Length)
		}
	}
}

func TestDecomposeSingleServerMergesUnits(t *testing.T) {
	l := Layout{Unit: 64 * kb, Servers: 1}
	subs := l.Decompose(0, 256*kb)
	if len(subs) != 1 || subs[0].Length != 256*kb {
		t.Fatalf("single-server decomposition = %v", subs)
	}
}

func TestDecomposeFullStripeWrap(t *testing.T) {
	// 2 servers: units 0,2 on server 0 are contiguous locally; a
	// request covering units 0..3 yields exactly one sub per server.
	// Units interleave in file order: srv0(0-64K), srv1(64-128K),
	// srv0(128-192K at local 64K), srv1(192-256K at local 64K).
	// File-order traversal merges only consecutive subs on the same
	// server, which never happens with 2 servers: 4 subs.
	l := Layout{Unit: 64 * kb, Servers: 2}
	subs := l.Decompose(0, 4*64*kb)
	if len(subs) != 4 {
		t.Fatalf("got %d subs: %v", len(subs), subs)
	}
	for i, s := range subs {
		if s.Server != i%2 || s.Length != 64*kb {
			t.Fatalf("sub %d = %v", i, s)
		}
	}
}

func TestDecomposeCoversRequestExactly(t *testing.T) {
	l := layout8()
	if err := quick.Check(func(off, length int64) bool {
		off = abs(off) % (1 << 30)
		length = abs(length)%(2<<20) + 1
		subs := l.Decompose(off, length)
		var total int64
		pos := off
		for _, s := range subs {
			if s.FileOff != pos && len(subs) > 1 {
				// FileOff must advance monotonically and contiguously
				// except when a merge collapsed spans. Verify coverage
				// by sum instead.
			}
			total += s.Length
			pos += s.Length
			srv, soff := l.Locate(s.FileOff)
			if srv != s.Server || soff != s.ServerOff {
				return false
			}
		}
		return total == length
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeSubsWithinUnitBounds(t *testing.T) {
	l := layout8()
	if err := quick.Check(func(off, length int64) bool {
		off = abs(off) % (1 << 30)
		length = abs(length)%(512*kb) + 1
		for _, s := range l.Decompose(off, length) {
			if s.Length <= 0 {
				return false
			}
			// A non-merged sub must not cross a unit boundary in file
			// space when servers > 1.
			if s.Length > l.Unit {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// equalSubs compares sub lists field by field (a nil and an empty
// Siblings list are equal).
func equalSubs(a, b []Sub) bool {
	return slices.EqualFunc(a, b, func(x, y Sub) bool {
		return x.Server == y.Server && x.ServerOff == y.ServerOff && x.FileOff == y.FileOff &&
			x.Length == y.Length && x.Fragment == y.Fragment && slices.Equal(x.Siblings, y.Siblings)
	})
}

// TestAppendDecomposeReusesDirtyBuffers: decomposing into buffers left
// over from earlier requests — fragments, sibling lists and all — gives
// exactly what Decompose and DecomposeFlagged give, leaves a kept prefix
// untouched, and no fragment's Siblings shares room with another's.
func TestAppendDecomposeReusesDirtyBuffers(t *testing.T) {
	var dst []Sub
	var sibs []int
	if err := quick.Check(func(unit uint32, servers uint8, off, length, threshold int64, keep uint8, reuse bool) bool {
		l := Layout{Unit: int64(unit)%(256*kb) + 1, Servers: int(servers)%16 + 1}
		off = abs(off) % (64 << 20)
		length = abs(length) % (2*l.Unit*int64(l.Servers) + l.Unit)
		threshold = abs(threshold) % (2 * l.Unit)

		// Reuse (the per-request pattern) restarts both buffers; append
		// keeps a prefix of each, whose contents must survive.
		k, j := 0, 0
		if !reuse {
			k, j = int(keep)%(len(dst)+1), len(sibs)
		}
		prefix := slices.Clone(dst[:k])
		for i := range prefix {
			prefix[i].Siblings = slices.Clone(prefix[i].Siblings)
		}

		plain := l.AppendDecompose(slices.Clone(dst[:k]), off, length)
		if !equalSubs(plain[:k], prefix) || !equalSubs(plain[k:], l.Decompose(off, length)) {
			t.Logf("AppendDecompose(%+v, %d, %d) = %v", l, off, length, plain[k:])
			return false
		}
		// A kept sub that ends where the new request starts, on the
		// same server, stays a separate sub.
		before := l.Decompose(off-min(off, 512), min(off, 512))
		joined := l.AppendDecompose(slices.Clone(before), off, length)
		if !equalSubs(joined[:len(before)], before) || !equalSubs(joined[len(before):], l.Decompose(off, length)) {
			t.Logf("AppendDecompose after %v = %v", before, joined)
			return false
		}

		want := l.DecomposeFlagged(off, length, threshold)
		dst, sibs = l.AppendDecomposeFlagged(dst[:k], sibs[:j], off, length, threshold)
		if !equalSubs(dst[:k], prefix) || !equalSubs(dst[k:], want) {
			t.Logf("AppendDecomposeFlagged(%+v, %d, %d, %d) = %v, want %v", l, off, length, threshold, dst[k:], want)
			return false
		}
		for i := k; i < len(dst); i++ {
			if !dst[i].Fragment {
				continue
			}
			_ = append(dst[i].Siblings, -1)
			if !equalSubs(dst[:k], prefix) || !equalSubs(dst[k:], want) {
				t.Logf("appending to sub %d's Siblings changed another sub", i-k)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFlaggedFragments65KB(t *testing.T) {
	l := layout8()
	subs := l.DecomposeFlagged(0, 65*kb, 20*kb)
	if subs[0].Fragment {
		t.Fatal("64KB sub flagged as fragment")
	}
	if !subs[1].Fragment {
		t.Fatal("1KB sub not flagged as fragment")
	}
	if len(subs[1].Siblings) != 1 || subs[1].Siblings[0] != 0 {
		t.Fatalf("siblings = %v, want [0]", subs[1].Siblings)
	}
}

func TestFlaggedRespectsThreshold(t *testing.T) {
	l := layout8()
	// 33 KB request at offset 31 KB → 33 KB crosses boundary at 64 KB:
	// subs are 33KB? No: offset 31KB +33KB = 64KB exactly → single unit.
	// Use 40 KB at offset 48 KB: subs 16 KB (srv0) + 24 KB (srv1).
	subs := l.DecomposeFlagged(48*kb, 40*kb, 20*kb)
	if len(subs) != 2 {
		t.Fatalf("%d subs", len(subs))
	}
	if !subs[0].Fragment {
		t.Fatal("16KB sub should be a fragment at 20KB threshold")
	}
	if subs[1].Fragment {
		t.Fatal("24KB sub flagged despite exceeding threshold")
	}
	// Raising the threshold to 30 KB flags both.
	subs = l.DecomposeFlagged(48*kb, 40*kb, 30*kb)
	if !subs[0].Fragment || !subs[1].Fragment {
		t.Fatal("30KB threshold should flag both subs")
	}
}

func TestSingleSubNeverFlagged(t *testing.T) {
	l := layout8()
	// A small request inside one unit is a "regular random request" in
	// the paper's vocabulary, never a fragment.
	subs := l.DecomposeFlagged(100, 4*kb, 20*kb)
	if len(subs) != 1 {
		t.Fatalf("%d subs", len(subs))
	}
	if subs[0].Fragment {
		t.Fatal("single-server request flagged as fragment")
	}
}

func TestFragmentsCount(t *testing.T) {
	l := layout8()
	if n := l.Fragments(0, 65*kb, 20*kb); n != 1 {
		t.Fatalf("Fragments(0,65KB) = %d, want 1", n)
	}
	if n := l.Fragments(10*kb, 64*kb, 20*kb); n != 1 {
		// 54KB + 10KB: only the 10KB piece is under the threshold.
		t.Fatalf("Fragments(10KB,64KB) = %d, want 1", n)
	}
	if n := l.Fragments(0, 64*kb, 20*kb); n != 0 {
		t.Fatalf("aligned request has %d fragments", n)
	}
}

func TestServerBytes(t *testing.T) {
	l := Layout{Unit: 64 * kb, Servers: 4}
	got := l.ServerBytes(5*64*kb + 10)
	want := []int64{2 * 64 * kb, 64*kb + 10, 64 * kb, 64 * kb}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ServerBytes = %v, want %v", got, want)
		}
	}
	var total int64
	for _, b := range got {
		total += b
	}
	if total != 5*64*kb+10 {
		t.Fatalf("total %d", total)
	}
}

func TestValidate(t *testing.T) {
	if err := (Layout{Unit: 0, Servers: 4}).Validate(); err == nil {
		t.Fatal("zero unit accepted")
	}
	if err := (Layout{Unit: 64 * kb, Servers: 0}).Validate(); err == nil {
		t.Fatal("zero servers accepted")
	}
	if err := layout8().Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		if x == -x { // MinInt64
			return 0
		}
		return -x
	}
	return x
}
