// Command pfs-meta runs the pfsnet metadata server.
//
// Usage:
//
//	pfs-meta -listen 127.0.0.1:7000 -unit 65536 \
//	    -servers 127.0.0.1:7001,127.0.0.1:7002
//
// The server speaks wire protocol v2 (tagged frames) and refuses any
// other version at the hello. Each connection is served by the same loop
// as a data server's: requests run in arrival order and a pipelined
// burst is answered with one writev. -servers must name each data
// server once, with no empty entry. SIGINT or SIGTERM stops the server.
// A usage error (a bad flag, no -servers, a malformed -faults plan)
// exits 2 with the usage text.
//
// With -debug-addr the server exposes its metrics registry over expvar:
// GET http://<debug-addr>/debug/vars returns a JSON map holding the
// standard expvar keys plus "pfs" (the "pfsnet.meta.*" wire metrics:
// frames, bytes and writev batching).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pfsnet"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7000", "address to listen on")
		unit       = flag.Int64("unit", 64*1024, "striping unit in bytes")
		servers    = flag.String("servers", "", "comma-separated data server addresses, in stripe order")
		ioTimeout  = flag.Duration("io-timeout", 30*time.Second, "per-frame read/write deadline on each connection (0 = off)")
		debugAddr  = flag.String("debug-addr", "", "serve expvar metrics over HTTP at this address (/debug/vars)")
		faultSpec  = flag.String("faults", "", "deterministic fault-injection plan (see internal/faults)")
		faultScope = flag.String("fault-scope", "meta", "this server's scope label in the fault plan")
	)
	flag.Parse()
	addrs := strings.Split(*servers, ",")
	if *servers == "" || len(addrs) == 0 {
		usageError("-servers is required")
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		var err error
		if plan, err = faults.Parse(*faultSpec); err != nil {
			usageError("-faults: %v", err)
		}
	}
	reg := obs.NewRegistry()
	ms, err := pfsnet.NewMetaServerConfig(*listen, *unit, addrs, pfsnet.MetaConfig{
		IOTimeout:  *ioTimeout,
		Obs:        reg,
		FaultPlan:  plan,
		FaultScope: *faultScope,
	})
	if err != nil {
		log.Fatalf("pfs-meta: %v", err)
	}
	log.Printf("pfs-meta: serving on %s (unit %d, %d data servers)", ms.Addr(), *unit, len(addrs))
	if *debugAddr != "" {
		expvar.Publish("pfs", expvar.Func(func() any { return reg.Snapshot() }))
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/debug/vars", expvar.Handler())
			log.Printf("pfs-meta: expvar metrics on http://%s/debug/vars", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("pfs-meta: debug server: %v", err)
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("pfs-meta: shutting down")
	ms.Close()
}

// usageError reports a bad command line, prints the usage text and exits
// 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfs-meta: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
