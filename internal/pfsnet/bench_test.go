package pfsnet

import (
	"sync/atomic"
	"testing"
)

// benchCluster starts a meta server and n data servers on loopback and
// returns the meta address. Cleanup runs via b.Cleanup.
func benchCluster(b *testing.B, n int, unit int64, bridge bool) string {
	b.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		ds, err := NewDataServer("127.0.0.1:0", bridge)
		if err != nil {
			b.Fatalf("data server %d: %v", i, err)
		}
		b.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", unit, addrs)
	if err != nil {
		b.Fatalf("meta server: %v", err)
	}
	b.Cleanup(func() { ms.Close() })
	return ms.Addr()
}

// BenchmarkPfsnetSmallSubreqs is the many-small-sub-requests workload:
// a high degree of concurrent 1 KB reads, each of which decomposes to a
// single-server sub-request. Throughput here is dominated by per-request
// wire overhead (round trips, allocations, syscalls), which is exactly
// what pipelining and multiplexing attack.
func BenchmarkPfsnetSmallSubreqs(b *testing.B) {
	const (
		fileSize = 64 << 20
		reqSize  = 1024
	)
	meta := benchCluster(b, 4, 64*1024, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("bench", fileSize)
	if err != nil {
		b.Fatal(err)
	}
	// Seed one stripe's worth of data so reads touch real bytes.
	seed := make([]byte, 1<<20)
	for i := range seed {
		seed[i] = byte(i)
	}
	if err := c.WriteAt(f, 0, seed); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.SetBytes(reqSize)
	b.ReportAllocs()
	b.SetParallelism(16) // 16×GOMAXPROCS goroutines: deep per-server queues
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, reqSize)
		for pb.Next() {
			off := (next.Add(1) * 4096) % (fileSize - reqSize)
			if err := c.ReadAt(f, off, buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPfsnetLargeTransfer reads 8 MB spans striped over 4 servers:
// the bandwidth-bound regime where framing overhead should be negligible
// and payload copies dominate.
func BenchmarkPfsnetLargeTransfer(b *testing.B) {
	const (
		fileSize = 64 << 20
		reqSize  = 8 << 20
	)
	meta := benchCluster(b, 4, 64*1024, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("bench", fileSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, reqSize)
	for i := range data {
		data[i] = byte(i >> 8)
	}
	if err := c.WriteAt(f, 0, data); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, reqSize)
	b.SetBytes(reqSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadAt(f, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPfsnetMixedFragmentAligned alternates unaligned 65 KB writes
// (whose 1 KB tails take the fragment-log path on bridge-enabled
// servers) with aligned 64 KB reads — the paper's mixed unaligned
// workload shape carried over the real wire.
func BenchmarkPfsnetMixedFragmentAligned(b *testing.B) {
	const fileSize = 64 << 20
	meta := benchCluster(b, 4, 64*1024, true)
	c := NewIBridgeClient(meta, 20*1024, 20*1024)
	defer c.Close()
	f, err := c.Create("bench", fileSize)
	if err != nil {
		b.Fatal(err)
	}
	wbuf := make([]byte, 65*1024)
	for i := range wbuf {
		wbuf[i] = byte(i)
	}
	rbuf := make([]byte, 64*1024)
	var next atomic.Int64
	b.SetBytes(int64(len(wbuf) + len(rbuf)))
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := make([]byte, len(wbuf))
		copy(w, wbuf)
		r := make([]byte, len(rbuf))
		for pb.Next() {
			n := next.Add(1)
			woff := (n * 65 * 1024) % (fileSize - int64(len(w)))
			if err := c.WriteAt(f, woff, w); err != nil {
				b.Error(err)
				return
			}
			roff := (n * 64 * 1024) % (fileSize - int64(len(r)))
			if err := c.ReadAt(f, roff, r); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPfsnetLargeWrite writes 8 MB spans striped over 4 servers:
// the write side of the bandwidth-bound regime, where each sub-request's
// frame borrows the caller's bytes instead of copying them.
func BenchmarkPfsnetLargeWrite(b *testing.B) {
	const (
		fileSize = 64 << 20
		reqSize  = 8 << 20
	)
	meta := benchCluster(b, 4, 64*1024, false)
	c := NewClient(meta)
	defer c.Close()
	f, err := c.Create("bench", fileSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, reqSize)
	for i := range data {
		data[i] = byte(i >> 8)
	}
	b.SetBytes(reqSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%(fileSize/reqSize)) * reqSize
		if err := c.WriteAt(f, off, data); err != nil {
			b.Fatal(err)
		}
	}
}
