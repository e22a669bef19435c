package mpiio

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/device"
	"repro/internal/sim"
)

// This file implements the two ROMIO optimizations the paper's related
// work discusses (Thakur et al., "Data Sieving and Collective I/O in
// ROMIO"): two-phase collective I/O and data sieving. Both transform an
// application's access pattern before it reaches the parallel file
// system — collective buffering produces large aligned requests at the
// cost of an all-to-all exchange, while data sieving covers strided small
// pieces with one large request (reading extra bytes, and for writes
// performing a read-modify-write). They are the software alternatives to
// iBridge's hardware approach, and the ext-collective experiment compares
// them.

// Piece is one (offset, length) element of a collective or sieved access.
type Piece struct {
	Off int64
	Len int64
}

// CollectiveConfig tunes the two-phase implementation.
type CollectiveConfig struct {
	// ExchangeBW is the aggregate interconnect bandwidth available to
	// the data shuffle (bytes/second); the exchange moves essentially
	// all data once.
	ExchangeBW float64
	// ExchangeLatency is the per-phase synchronization cost.
	ExchangeLatency sim.Duration
	// DomainAlign aligns each aggregator's file domain (the striping
	// unit, so aggregated requests are aligned at the servers).
	DomainAlign int64
}

// DefaultCollective returns parameters for the QDR InfiniBand platform.
func DefaultCollective() CollectiveConfig {
	return CollectiveConfig{
		ExchangeBW:      3.2e9,
		ExchangeLatency: 20 * sim.Microsecond,
		DomainAlign:     64 * 1024,
	}
}

// Plan is the two-phase plan of one collective access, pieces[i] being
// rank i's pieces: the covering extents of all pieces, aligned outward
// to cfg.DomainAlign and split into at most one contiguous domain per
// aggregator (domains[i] is rank i's), and the exchange step every rank
// computes for before the file access — the synchronization cost plus
// its share of moving every piece's bytes across the interconnect once.
func Plan(pieces [][]Piece, cfg CollectiveConfig) (domains []Piece, exchange Step) {
	n := len(pieces)
	var all []Piece
	for _, ps := range pieces {
		all = append(all, ps...)
	}
	var total int64
	for _, p := range all {
		total += p.Len
	}
	perRank := sim.Duration(float64(total) / float64(n) / cfg.ExchangeBW * float64(sim.Second))
	exchange = Step{Kind: Compute, D: cfg.ExchangeLatency + perRank}
	if len(all) == 0 {
		return nil, exchange
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	// Align each covering extent outward, then merge extents that now
	// touch.
	a := cfg.alignment()
	merged := cover(all, 0)
	for i := range merged {
		start := merged[i].Off / a * a
		end := (merged[i].Off + merged[i].Len + a - 1) / a * a
		merged[i] = Piece{Off: start, Len: end - start}
	}
	aligned := cover(merged, 0)
	// Split the covered space into per-aggregator domains: contiguous
	// aligned slices of roughly equal size, at most one per rank.
	var covered int64
	for _, p := range aligned {
		covered += p.Len
	}
	perDomain := max((covered/int64(n)+a-1)/a*a, a)
	for _, p := range aligned {
		for off := p.Off; off < p.Off+p.Len; off += perDomain {
			domains = append(domains, Piece{Off: off, Len: min(perDomain, p.Off+p.Len-off)})
		}
	}
	if len(domains) > n {
		// More domains than ranks: the last aggregator takes the tail
		// as one span of the tail's total length. Non-contiguous tails
		// are rare in the benchmarks; the aggregate I/O volume is what
		// the model needs.
		last := domains[n-1]
		for _, p := range domains[n:] {
			last.Len += p.Len
		}
		domains = append(domains[:n-1], last)
	}
	return domains, exchange
}

// cover merges sorted pieces whose gaps are at most maxHole into
// covering extents.
func cover(sorted []Piece, maxHole int64) []Piece {
	var out []Piece
	for _, p := range sorted {
		if n := len(out) - 1; n >= 0 && p.Off-(out[n].Off+out[n].Len) <= maxHole {
			out[n].Len = max(out[n].Len, p.Off+p.Len-out[n].Off)
			continue
		}
		out = append(out, p)
	}
	return out
}

func (cfg CollectiveConfig) alignment() int64 {
	if cfg.DomainAlign <= 0 {
		return 64 * 1024
	}
	return cfg.DomainAlign
}

// Collective rewrites the programs as two-phase collective I/O: the
// k-th Read or Write step of every rank together are one collective
// access (every program must have as many), which Plan turns into each
// rank's steps. Every rank meets the others twice (the plan is made
// between the two barriers), computes its exchange, issues its domain
// if it is an aggregator with one, for a read computes the exchange
// latency again (the shuffle follows the file access), and meets the
// others twice more.
func Collective(progs []Program, cfg CollectiveConfig) []Program {
	ios := make([][]int, len(progs)) // each rank's I/O step indices
	for i, prog := range progs {
		for pc, s := range prog {
			if s.Kind == Read || s.Kind == Write {
				ios[i] = append(ios[i], pc)
			}
		}
		if len(ios[i]) != len(ios[0]) {
			panic(fmt.Sprintf("mpiio: rank %d has %d I/O steps, rank 0 %d", i, len(ios[i]), len(ios[0])))
		}
	}
	out := make([]Program, len(progs))
	from := make([]int, len(progs)) // the next step of progs[i] to copy
	pieces := make([][]Piece, len(progs))
	for k := range ios[0] {
		for i, prog := range progs {
			pieces[i] = prog[ios[i][k]].Pieces(pieces[i][:0])
		}
		domains, exchange := Plan(pieces, cfg)
		for i, prog := range progs {
			pc := ios[i][k]
			s := prog[pc]
			out[i] = append(out[i], prog[from[i]:pc]...)
			out[i] = append(out[i], Step{Kind: Barrier}, Step{Kind: Barrier}, exchange)
			if i < len(domains) && domains[i].Len > 0 {
				out[i] = append(out[i], Step{Kind: s.Kind, Off: domains[i].Off, Len: domains[i].Len, Count: 1})
			}
			if s.Kind == Read {
				out[i] = append(out[i], Step{Kind: Compute, D: cfg.ExchangeLatency})
			}
			out[i] = append(out[i], Step{Kind: Barrier}, Step{Kind: Barrier})
			from[i] = pc + 1
		}
	}
	for i, prog := range progs {
		out[i] = append(out[i], prog[from[i]:]...)
	}
	return out
}

// SieveConfig tunes data sieving.
type SieveConfig struct {
	// MaxHole is the largest gap worth reading through; pieces
	// separated by more than this start a new covering extent (ROMIO's
	// ind_rd_buffer_size plays this role).
	MaxHole int64
}

// Sieve returns the steps that access one rank's pieces by data
// sieving: one request per covering extent (pieces whose gaps are at
// most cfg.MaxHole, 512 KiB when unset, share one), a read for a read
// and a read-modify-write for a write.
func Sieve(pieces []Piece, op device.Op, cfg SieveConfig) []Step {
	if cfg.MaxHole <= 0 {
		cfg.MaxHole = 512 * 1024
	}
	sorted := slices.Clone(pieces)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	var steps []Step
	for _, p := range cover(sorted, cfg.MaxHole) {
		steps = append(steps, IO(device.Read, p.Off, p.Len))
		if op == device.Write {
			steps = append(steps, IO(device.Write, p.Off, p.Len))
		}
	}
	return steps
}
