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

func TestDecomposeFullStripeWrap(t *testing.T) {
	// 2 servers: units 0,2 on server 0 are contiguous locally, but the
	// decomposition is by unit. Units interleave in file order:
	// srv0(0-64K), srv1(64-128K), srv0(128-192K at local 64K),
	// srv1(192-256K at local 64K): 4 subs.
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
			// A sub never crosses a unit boundary in file space.
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

// TestAppendRunsReusesDirtyBuffers: building runs into buffers left
// over from earlier requests — fragments, sibling lists and all — gives
// exactly what fresh buffers give, leaves a kept prefix untouched, and no
// fragment's Siblings shares room with another's.
func TestAppendRunsReusesDirtyBuffers(t *testing.T) {
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

		// A kept run that ends where the new request starts, on the
		// same server, stays a separate run.
		before, _ := l.AppendRuns(nil, nil, off-min(off, 512), min(off, 512), 0)
		joined, _ := l.AppendRuns(slices.Clone(before), nil, off, length, 0)
		fresh, _ := l.AppendRuns(nil, nil, off, length, 0)
		if !equalSubs(joined[:len(before)], before) || !equalSubs(joined[len(before):], fresh) {
			t.Logf("AppendRuns after %v = %v", before, joined)
			return false
		}

		want, _ := l.AppendRuns(nil, nil, off, length, threshold)
		dst, sibs = l.AppendRuns(dst[:k], sibs[:j], off, length, threshold)
		if !equalSubs(dst[:k], prefix) || !equalSubs(dst[k:], want) {
			t.Logf("AppendRuns(%+v, %d, %d, %d) = %v, want %v", l, off, length, threshold, dst[k:], want)
			return false
		}
		for i := k; i < len(dst); i++ {
			if !dst[i].Fragment {
				continue
			}
			_ = append(dst[i].Siblings, -1)
			if !equalSubs(dst[:k], prefix) || !equalSubs(dst[k:], want) {
				t.Logf("appending to run %d's Siblings changed another run", i-k)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRunsOneServer: on a one-server file a request's units all
// lie back to back in the server's object, so they go as one run, cut
// only at MaxRun, and nothing is flagged.
func TestAppendRunsOneServer(t *testing.T) {
	l := Layout{Unit: 64 * kb, Servers: 1}
	cases := []struct {
		off, length int64
		want        []Sub
	}{
		{0, 256 * kb, []Sub{{ServerOff: 0, FileOff: 0, Length: 256 * kb}}},
		{10 * kb, 65 * kb, []Sub{{ServerOff: 10 * kb, FileOff: 10 * kb, Length: 65 * kb}}},
		{kb, 2*MaxRun + 1, []Sub{
			{ServerOff: kb, FileOff: kb, Length: MaxRun},
			{ServerOff: kb + MaxRun, FileOff: kb + MaxRun, Length: MaxRun},
			{ServerOff: kb + 2*MaxRun, FileOff: kb + 2*MaxRun, Length: 1},
		}},
	}
	for _, c := range cases {
		got, sibs := l.AppendRuns(nil, nil, c.off, c.length, 20*kb)
		if !equalSubs(got, c.want) || len(sibs) != 0 {
			t.Errorf("AppendRuns(%d, %d) = %v, want %v", c.off, c.length, got, c.want)
		}
	}
}

// TestAppendRunsTwoStripes: an aligned request of two stripes on four
// servers is one run per server, in the order the request reaches them,
// where the decomposition has two units per server.
func TestAppendRunsTwoStripes(t *testing.T) {
	l := Layout{Unit: 64 * kb, Servers: 4}
	off := int64(6 * 64 * kb) // starts on server 2
	runs, _ := l.AppendRuns(nil, nil, off, 8*64*kb, 20*kb)
	want := []Sub{
		{Server: 2, ServerOff: 64 * kb, FileOff: off, Length: 128 * kb},
		{Server: 3, ServerOff: 64 * kb, FileOff: off + 64*kb, Length: 128 * kb},
		{Server: 0, ServerOff: 128 * kb, FileOff: off + 128*kb, Length: 128 * kb},
		{Server: 1, ServerOff: 128 * kb, FileOff: off + 192*kb, Length: 128 * kb},
	}
	if !equalSubs(runs, want) || len(l.Decompose(off, 8*64*kb)) != 8 {
		t.Fatalf("runs = %v, want %v", runs, want)
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
	fragments := func(off, length int64) int {
		n := 0
		for _, s := range l.DecomposeFlagged(off, length, 20*kb) {
			if s.Fragment {
				n++
			}
		}
		return n
	}
	if n := fragments(0, 65*kb); n != 1 {
		t.Fatalf("fragments(0,65KB) = %d, want 1", n)
	}
	if n := fragments(10*kb, 64*kb); n != 1 {
		// 54KB + 10KB: only the 10KB piece is under the threshold.
		t.Fatalf("fragments(10KB,64KB) = %d, want 1", n)
	}
	if n := fragments(0, 64*kb); n != 0 {
		t.Fatalf("aligned request has %d fragments", n)
	}
	// One server: the request touches a single server, so nothing is a
	// fragment however short its pieces.
	one := Layout{Unit: 64 * kb, Servers: 1}
	for _, s := range one.DecomposeFlagged(10*kb, 64*kb, 20*kb) {
		if s.Fragment {
			t.Fatalf("one-server piece %v flagged", s)
		}
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

// FuzzStripeRuns checks AppendRuns against the unit decomposition over
// random requests and layouts: cutting the runs at unit boundaries, and
// joining what the cap cut inside a unit, gives back exactly Decompose's
// units; each run is contiguous in its server's object and at most
// MaxRun long; a flagged run lies within one unit, and every piece is
// flagged exactly when DecomposeFlagged flags its unit; servers come in
// the order the request first touches them, each one's runs together
// and in object order; two neighbouring runs could not have been one;
// and a fragment's siblings are the servers of the other runs.
func FuzzStripeRuns(f *testing.F) {
	f.Add(int64(0), int64(4<<20), uint8(4), int64(64<<10), int64(0))
	f.Add(int64(10<<10), int64(1<<20+5<<10), uint8(4), int64(64<<10), int64(20<<10))
	f.Add(int64(65<<10), int64(65<<10), uint8(8), int64(64<<10), int64(20<<10))
	f.Add(int64(3), int64(5000), uint8(2), int64(1000), int64(400))
	f.Add(int64(0), int64(3<<20), uint8(1), int64(96<<10), int64(0))
	f.Add(int64(12345), int64(5<<20), uint8(2), int64(96<<10), int64(0))
	f.Add(int64(10<<10), int64(64<<20), uint8(1), int64(64<<10), int64(20<<10)) // one server
	f.Add(int64(100), int64(3<<19), uint8(4), int64(2<<20), int64(0))           // a lone run over MaxRun
	f.Add(int64(0), int64(3<<20+5), uint8(2), int64(2<<20), int64(2<<20))       // a fragment over MaxRun
	f.Add(int64(60<<10), int64(1<<20), uint8(3), int64(64<<10), int64(20<<10))  // a fragment, then its server's units
	f.Fuzz(func(t *testing.T, off, length int64, servers uint8, unit, threshold int64) {
		const maxUnit = 2 << 20
		l := Layout{Unit: 1 + (abs(unit)+maxUnit-1)%maxUnit, Servers: 1 + int(servers)%6} // a seed's unit as it is
		off = abs(off) % (1 << 30)
		length = 1 + abs(length)%min(80<<20, 4096*l.Unit) // at most ~4096 units
		threshold = abs(threshold) % (l.Unit + 1)
		units := l.DecomposeFlagged(off, length, threshold)
		runs, _ := l.AppendRuns(nil, nil, off, length, threshold)

		var pieces []Sub // the runs cut at unit boundaries
		done := map[int]bool{}
		for k, r := range runs {
			if r.Length <= 0 || r.Length > MaxRun {
				t.Fatalf("run %d %v: length out of (0, MaxRun]", k, r)
			}
			if k > 0 {
				prev := runs[k-1]
				switch {
				case prev.Server != r.Server && done[r.Server]:
					t.Fatalf("run %d %v: its server's runs are not together", k, r)
				case prev.Server == r.Server && prev.ServerOff+prev.Length != r.ServerOff:
					t.Fatalf("runs %d and %d of server %d are not back to back", k-1, k, r.Server)
				case prev.Server == r.Server && !prev.Fragment && !r.Fragment && prev.Length < MaxRun:
					t.Fatalf("runs %d and %d could have been one", k-1, k)
				}
				done[prev.Server] = true
			}
			n0 := len(pieces)
			for pos, at := r.FileOff, int64(0); at < r.Length; {
				n := min(l.Unit-pos%l.Unit, r.Length-at)
				if srv, srvOff := l.Locate(pos); srv != r.Server || srvOff != r.ServerOff+at {
					t.Fatalf("run %d %v: byte %d at file offset %d is not in its object range", k, r, at, pos)
				}
				pieces = append(pieces, Sub{Server: r.Server, ServerOff: r.ServerOff + at, FileOff: pos, Length: n, Fragment: r.Fragment})
				pos += n + l.Unit*int64(l.Servers-1) // the start of the server's next unit
				at += n
			}
			if r.Fragment && len(pieces)-n0 != 1 {
				t.Fatalf("flagged run %d %v spans %d units", k, r, len(pieces)-n0)
			}
			var want []int
			for j, o := range runs {
				if j != k && r.Fragment {
					want = append(want, o.Server)
				}
			}
			if !slices.Equal(r.Siblings, want) {
				t.Fatalf("run %d %v: siblings %v, want %v", k, r, r.Siblings, want)
			}
		}
		slices.SortFunc(pieces, func(a, b Sub) int { return int(a.FileOff - b.FileOff) })
		var joined []Sub
		for _, p := range pieces {
			if k := len(joined) - 1; k >= 0 && joined[k].FileOff/l.Unit == p.FileOff/l.Unit {
				if joined[k].Fragment != p.Fragment {
					t.Fatalf("unit at %d is flagged in part", joined[k].FileOff)
				}
				joined[k].Length += p.Length
				continue
			}
			joined = append(joined, p)
		}
		for i := range units {
			units[i].Siblings = nil
		}
		if !equalSubs(joined, units) {
			t.Fatalf("runs cut into units give %v, want %v", joined, units)
		}
		var order []int // servers by first touch, in file order
		for _, u := range units {
			if !slices.Contains(order, u.Server) {
				order = append(order, u.Server)
			}
		}
		got := slices.CompactFunc(slices.Clone(runs), func(a, b Sub) bool { return a.Server == b.Server })
		for i := range got {
			if got[i].Server != order[i] {
				t.Fatalf("runs reach servers in the order %v, want %v", got, order)
			}
		}
	})
}
