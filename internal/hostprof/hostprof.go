// Package hostprof holds the host-side profiling helper of the simulator
// commands. It is its own package, imported by cmd/ibridge-sim and
// cmd/ibridge-bench only, so that runtime/pprof is not linked into the
// live cluster's binaries (pfs-server, pfs-meta), which import obs.
package hostprof

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// StartCPU starts a runtime/pprof CPU profile of the host process
// into path (the -cpuprofile flag of the simulator commands) and returns
// the function that stops the profile and closes the file. Profiling
// samples host time only; it cannot move a simulated number.
func StartCPU(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile %s: %w", path, err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile %s: %w", path, err)
		}
		return nil
	}, nil
}
