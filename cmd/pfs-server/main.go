// Command pfs-server runs one pfsnet data server.
//
// Usage:
//
//	pfs-server -listen 127.0.0.1:7001 -ibridge
//	pfs-server -listen 127.0.0.1:7001 -store log -store-dir /data/srv0
//	pfs-server -listen 127.0.0.1:7001 -debug-addr 127.0.0.1:7071
//	pfs-server -listen 127.0.0.1:7001 -span-file srv0.spans
//	pfs-server -listen 127.0.0.1:7001 -io-timeout 10s \
//	    -faults 'seed=1; reset=1%; ssdfail=srv0@100' -fault-scope srv0
//
// -store selects the backing object store: "mem" (default, volatile)
// or "log" (internal/logstore: append-only checksummed log under
// -store-dir with checkpointed journal replay — survives kill -9
// mid-write; see DESIGN §14).
//
// SIGINT or SIGTERM shuts the server down cleanly: it drains the
// fragment log into the store and closes the store, and exits non-zero
// if either fails. A usage error (a bad flag, an unknown -store, -store
// log without -store-dir, a malformed -faults plan) exits 2 with the
// usage text.
//
// The server speaks wire protocol v2 (pipelined tagged frames) and
// refuses any other version at the hello. Each connection is
// served by one goroutine that executes its requests in arrival order
// and answers a pipelined burst with one writev, so a server's
// concurrency is its clients' connection count (DESIGN §8).
//
// With -debug-addr the server exposes its metrics registry over expvar:
// GET http://<debug-addr>/debug/vars returns a JSON map holding the
// standard expvar keys plus "pfs" (the live server counters and the
// "pfsnet.server.*" wire metrics: frames, bytes, writev batching, and
// the fragment log's pfsnet.server.bridge.{live_bytes,held_bytes,extents}
// gauges).
//
// With -span-file the server arms an obs.XTracer named after its fault
// scope: traced clients propagate {traceID, parentSpanID} on the
// wire, and the per-request queue-wait/store/respond spans land in the
// span file at shutdown. Merge the per-process files with
// `ibridge-trace -merge`.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/pfsnet"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7001", "address to listen on")
		ibridge    = flag.Bool("ibridge", false, "enable the iBridge fragment log")
		storeKind  = flag.String("store", "mem", "backing store: mem or log (crash-consistent; see DESIGN §14)")
		storeDir   = flag.String("store-dir", "", "directory for the log store")
		debugAddr  = flag.String("debug-addr", "", "serve expvar metrics over HTTP at this address (/debug/vars)")
		spanFile   = flag.String("span-file", "", "write this server's trace spans (JSON lines) to this file at shutdown; merge with 'ibridge-trace -merge'")
		ioTimeout  = flag.Duration("io-timeout", 30*time.Second, "per-frame read/write deadline on each connection (0 = off)")
		faultSpec  = flag.String("faults", "", "deterministic fault-injection plan, e.g. 'seed=1; reset=1%; ssdfail=srv0@100' (see internal/faults)")
		faultScope = flag.String("fault-scope", "srv0", "this server's scope label in the fault plan")
	)
	flag.Parse()
	var plan *faults.Plan
	if *faultSpec != "" {
		var err error
		if plan, err = faults.Parse(*faultSpec); err != nil {
			usageError("-faults: %v", err)
		}
	}
	// The registry is shared: the wire layer updates its
	// "pfsnet.server.*" metrics inline, the log store (when selected)
	// adds "logstore.*", and the Stats counters are published as
	// functions read at scrape time.
	reg := obs.NewRegistry()
	// The tracer names this process by its fault scope ("srv0", ...),
	// which is what groups its spans into one pid lane after a merge.
	var tracer *obs.XTracer
	if *spanFile != "" {
		tracer = obs.NewXTracer(*faultScope, 0)
		tracer.SetDropCounter(reg.Counter("obs.trace.dropped_events"))
		plan.SetTracer(tracer)
	}
	kind, sdir := *storeKind, *storeDir
	var store pfsnet.ObjectStore
	var logStore *logstore.LogStore
	switch kind {
	case "mem":
		store = pfsnet.NewMemStore()
	case "log":
		if sdir == "" {
			usageError("-store log requires -store-dir")
		}
		ls, err := logstore.Open(sdir, logstore.Config{
			Obs:    reg,
			Tracer: tracer,
			Scope:  *faultScope,
		})
		if err != nil {
			log.Fatalf("pfs-server: %v", err)
		}
		st := ls.Stats()
		log.Printf("pfs-server: log store %s: generation %d, %d records replayed, %d torn tails truncated",
			sdir, st.Generation, st.ReplayedRecords, st.TruncatedTails)
		store, logStore = ls, ls
	default:
		usageError("unknown -store %q (want mem or log)", kind)
	}
	// Catch the stop signals before the listener exists: once a client
	// can reach the server, a SIGTERM must drain the bridge's
	// acknowledged fragments, not kill the process with them.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ds, err := pfsnet.NewDataServerConfig(*listen, pfsnet.ServerConfig{
		Bridge:     *ibridge,
		Store:      store,
		Obs:        reg,
		Tracer:     tracer,
		IOTimeout:  *ioTimeout,
		FaultPlan:  plan,
		FaultScope: *faultScope,
	})
	if err != nil {
		log.Fatalf("pfs-server: %v", err)
	}
	log.Printf("pfs-server: serving on %s (iBridge log: %v)", ds.Addr(), *ibridge)
	if *debugAddr != "" {
		reg.RegisterFunc("pfs.reads", func() float64 { return float64(ds.Stats().Reads) })
		reg.RegisterFunc("pfs.writes", func() float64 { return float64(ds.Stats().Writes) })
		reg.RegisterFunc("pfs.fragment_writes", func() float64 { return float64(ds.Stats().FragmentWrites) })
		reg.RegisterFunc("pfs.fragment_reads", func() float64 { return float64(ds.Stats().FragmentReads) })
		reg.RegisterFunc("pfs.log_bytes", func() float64 { return float64(ds.Stats().LogBytes) })
		if logStore != nil {
			// The logstore.* counters and gauges live in the shared
			// registry already; the generation is the one piece of state
			// only Stats exposes.
			reg.RegisterFunc("logstore.generation", func() float64 { return float64(logStore.Stats().Generation) })
		}
		expvar.Publish("pfs", expvar.Func(func() any { return reg.Snapshot() }))
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/debug/vars", expvar.Handler())
			log.Printf("pfs-server: expvar metrics on http://%s/debug/vars", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("pfs-server: debug server: %v", err)
			}
		}()
	}
	<-sig
	log.Print("pfs-server: shutting down")
	closeErr := ds.Close()
	if plan != nil {
		log.Printf("pfs-server: faults injected: %s", plan.CountsString())
	}
	if tracer != nil {
		f, err := os.Create(*spanFile)
		if err != nil {
			log.Fatalf("pfs-server: %v", err)
		}
		if err := tracer.WriteSpans(f); err != nil {
			log.Fatalf("pfs-server: span file %s: %v", *spanFile, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("pfs-server: span file %s: %v", *spanFile, err)
		}
		log.Printf("pfs-server: %d spans written to %s (dropped %d)", tracer.Len(), *spanFile, tracer.Dropped())
	}
	if closeErr != nil {
		log.Fatalf("pfs-server: close: %v", closeErr)
	}
}

// usageError reports a bad command line, prints the usage text and exits
// 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfs-server: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
