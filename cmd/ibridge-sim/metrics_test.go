package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// metricsPoints are sim-eval grid points whose -metrics output is pinned:
// an iBridge write shifted 1 KB off the stripe (offloads, writebacks), an
// iBridge 65 KB warmed read (hits, stages) and a stock 129 KB warmed read
// (the zero rows of the bridge and the SSD queue).
var metricsPoints = []struct {
	name string
	args []string
}{
	{"ibridge-64k+1k-write", []string{"-mode", "ibridge", "-size", "65536", "-shift", "1024", "-write"}},
	{"ibridge-65k-warm", []string{"-mode", "ibridge", "-size", "66560", "-warm"}},
	{"stock-129k-warm", []string{"-mode", "stock", "-size", "132096", "-warm"}},
}

// TestMetricsGolden: -metrics prints the run's report, every registry
// counter, gauge and histogram, and the T_i telemetry; all of it is
// simulated, so the whole of standard output must match
// testdata/metrics-<point>.golden byte for byte. -update rewrites the
// files.
func TestMetricsGolden(t *testing.T) {
	for _, pt := range metricsPoints {
		t.Run(pt.name, func(t *testing.T) {
			args := append([]string{"-procs", "64", "-file", "48", "-seed", "1", "-metrics"}, pt.args...)
			code, stdout, stderr := runSim(t, args...)
			if code != 0 {
				t.Fatalf("exit %d\nstderr: %s", code, stderr)
			}
			path := filepath.Join("testdata", "metrics-"+pt.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("%v: stdout differs from %s\n--- got ---\n%s--- want ---\n%s", args, path, stdout, want)
			}
		})
	}
}
