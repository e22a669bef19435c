package mpiio

import (
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// runPrograms runs progs on a fresh testWorld and returns the world's
// file system statistics' requests and bytes and the instant the last
// rank finished.
func runPrograms(t *testing.T, progs []Program) (requests, bytes int64, end sim.Time) {
	t.Helper()
	e := sim.New()
	w, fs := testWorld(t, e, len(progs))
	runWorld(t, e, func(done func()) { w.Run(progs, nil, done) })
	return fs.Stats().Requests, fs.Stats().TotalBytes(), e.Now()
}

func TestCollectiveWriteAggregatesAligned(t *testing.T) {
	// Rank i's j-th 4 KB piece at (j*4 + i) * 4KB: 16 pieces tiling
	// [0, 64KB), one aligned 64 KB write from one aggregator.
	progs := make([]Program, 4)
	for i := range progs {
		progs[i] = Program{{Kind: Write, Off: int64(i) * 4096, Len: 4096, Stride: 4 * 4096, Count: 4}}
	}
	requests, bytes, _ := runPrograms(t, Collective(progs, DefaultCollective()))
	if requests != 1 || bytes != 64*1024 {
		t.Fatalf("%d aggregated requests of %d bytes, want 1 of %d", requests, bytes, 64*1024)
	}
}

func TestCollectiveReadCoversPieces(t *testing.T) {
	// Four scattered 8 KB pieces: four aligned 64 KB domain reads.
	progs := make([]Program, 4)
	for i := range progs {
		progs[i] = Program{IO(device.Read, int64(i)*100*1024, 8*1024)}
	}
	requests, bytes, _ := runPrograms(t, Collective(progs, DefaultCollective()))
	if requests != 4 || bytes != 4*64*1024 {
		t.Fatalf("%d aggregated reads of %d bytes, want 4 of %d", requests, bytes, 4*64*1024)
	}
}

func TestCollectiveReusable(t *testing.T) {
	progs := make([]Program, 2)
	for i := range progs {
		for round := int64(0); round < 3; round++ {
			progs[i] = append(progs[i], IO(device.Write, round<<20+int64(i)*32*1024, 32*1024))
		}
	}
	if requests, _, _ := runPrograms(t, Collective(progs, DefaultCollective())); requests != 3 {
		t.Fatalf("requests = %d, want 3 (one aggregated write per round)", requests)
	}
}

func TestCollectiveExchangeCostsTime(t *testing.T) {
	run := func(bw float64) sim.Time {
		cfg := DefaultCollective()
		cfg.ExchangeBW = bw
		progs := make([]Program, 4)
		for i := range progs {
			progs[i] = Program{IO(device.Write, int64(i)*16*1024, 16*1024)}
		}
		_, _, end := runPrograms(t, Collective(progs, cfg))
		return end
	}
	fast, slow := run(3.2e9), run(1e6)
	if slow <= fast {
		t.Fatalf("slow exchange (%v) not slower than fast (%v)", slow, fast)
	}
}

// TestCollectiveSteps: a collective access becomes four barriers around
// the exchange, the aggregator's domain access, and for a read the
// exchange latency after it; the steps around the access stay.
func TestCollectiveSteps(t *testing.T) {
	cfg := DefaultCollective()
	mark, barrier := Step{Kind: Mark}, Step{Kind: Barrier}
	progs := []Program{
		{mark, IO(device.Read, 0, 4096), mark},
		{mark, IO(device.Read, 4096, 4096), mark},
	}
	_, exchange := Plan([][]Piece{{{0, 4096}}, {{4096, 4096}}}, cfg)
	tail := []Step{{Kind: Compute, D: cfg.ExchangeLatency}, barrier, barrier, mark}
	want := []Program{
		append(Program{mark, barrier, barrier, exchange, IO(device.Read, 0, 64*1024)}, tail...),
		append(Program{mark, barrier, barrier, exchange}, tail...),
	}
	got := Collective(progs, cfg)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPlan table-tests the two-phase plan as a pure function.
func TestPlan(t *testing.T) {
	const a = 64 * 1024
	cfg := DefaultCollective()
	cases := []struct {
		name    string
		pieces  [][]Piece
		domains []Piece
		bytes   int64 // moved by the exchange
	}{
		{"empty", [][]Piece{nil, nil}, nil, 0},
		{"tiling", [][]Piece{{{0, 4096}, {8192, 4096}}, {{4096, 4096}, {12288, 4096}}},
			[]Piece{{0, a}}, 4 * 4096},
		{"one domain per rank", [][]Piece{{{0, 100}}, {{3 * a, 100}}},
			[]Piece{{0, a}, {3 * a, a}}, 200},
		{"overlap counted once in the cover", [][]Piece{{{0, 3 * a}}, {{a, 3 * a}}},
			[]Piece{{0, 2 * a}, {2 * a, 2 * a}}, 6 * a},
		{"tail folds onto the last aggregator", [][]Piece{{{0, 10}}, {{2 * a, 10}, {4 * a, 10}}},
			[]Piece{{0, a}, {2 * a, 2 * a}}, 30},
		{"unsorted pieces", [][]Piece{{{5 * a, 10}, {0, 10}}, {{a / 2, 10}}},
			[]Piece{{0, a}, {5 * a, a}}, 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			domains, exchange := Plan(c.pieces, cfg)
			if !slices.Equal(domains, c.domains) {
				t.Errorf("domains %v, want %v", domains, c.domains)
			}
			perRank := sim.Duration(float64(c.bytes) / float64(len(c.pieces)) / cfg.ExchangeBW * float64(sim.Second))
			if want := (Step{Kind: Compute, D: cfg.ExchangeLatency + perRank}); exchange != want {
				t.Errorf("exchange %+v, want %+v", exchange, want)
			}
		})
	}
}

func TestSieveRead(t *testing.T) {
	// Four 2KB pieces 14KB apart: one covering read.
	var pieces []Piece
	for j := 0; j < 4; j++ {
		pieces = append(pieces, Piece{Off: int64(j) * 16 * 1024, Len: 2 * 1024})
	}
	got := Sieve(pieces, device.Read, SieveConfig{MaxHole: 64 * 1024})
	if want := []Step{IO(device.Read, 0, 3*16*1024+2*1024)}; !slices.Equal(got, want) {
		t.Fatalf("sieve %+v, want %+v", got, want)
	}
}

func TestSieveWriteIsReadModifyWrite(t *testing.T) {
	got := Sieve([]Piece{{Off: 8192, Len: 1024}, {Off: 0, Len: 1024}}, device.Write, SieveConfig{MaxHole: 64 * 1024})
	if want := []Step{IO(device.Read, 0, 9216), IO(device.Write, 0, 9216)}; !slices.Equal(got, want) {
		t.Fatalf("sieve %+v, want %+v", got, want)
	}
}

func TestSieveRespectsMaxHole(t *testing.T) {
	cases := []struct {
		name   string
		pieces []Piece
		hole   int64
		want   []Step
	}{
		{"hole too wide", []Piece{{0, 1024}, {10 << 20, 1024}}, 4096,
			[]Step{IO(device.Read, 0, 1024), IO(device.Read, 10<<20, 1024)}},
		{"hole exactly MaxHole", []Piece{{0, 1024}, {5120, 1024}}, 4096,
			[]Step{IO(device.Read, 0, 6144)}},
		{"hole one past MaxHole", []Piece{{0, 1024}, {5121, 1024}}, 4096,
			[]Step{IO(device.Read, 0, 1024), IO(device.Read, 5121, 1024)}},
		{"default MaxHole 512 KiB", []Piece{{0, 1}, {512*1024 + 1, 1}}, 0,
			[]Step{IO(device.Read, 0, 512*1024+2)}},
		{"nested piece", []Piece{{0, 8192}, {1024, 10}}, 0,
			[]Step{IO(device.Read, 0, 8192)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Sieve(c.pieces, device.Read, SieveConfig{MaxHole: c.hole}); !slices.Equal(got, c.want) {
				t.Errorf("sieve %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestSieveEmpty(t *testing.T) {
	if got := Sieve(nil, device.Write, SieveConfig{}); len(got) != 0 {
		t.Errorf("empty sieve gave %+v", got)
	}
}
