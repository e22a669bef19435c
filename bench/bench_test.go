package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchmarkJSON is the part of ../BENCHMARK.json the catalogue must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); got != fmt.Sprint(declared) {
		t.Errorf("workloads: bench runs %s, BENCHMARK.json declares %v", got, declared)
	}
	check := func(section string, defs []metricDef, decl []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range decl {
			want[d.Name] = d.Unit
		}
		for _, d := range defs {
			if unit, ok := want[d.name]; !ok {
				t.Errorf("%s: %s is emitted but not declared", section, d.name)
			} else if unit != d.unit {
				t.Errorf("%s: %s has unit %q, declared %q", section, d.name, d.unit, unit)
			}
			delete(want, d.name)
		}
		for name := range want {
			t.Errorf("%s: %s is declared but not emitted", section, name)
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
}

func TestOpDigestFollowsSeed(t *testing.T) {
	for name, spec := range liveSpecs {
		a, again, b := opDigest(spec, 16<<20, 7), opDigest(spec, 16<<20, 7), opDigest(spec, 16<<20, 8)
		if a != again {
			t.Errorf("%s: same seed, digests %s and %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 share digest %s", name, a)
		}
		// Neighbouring seeds must not yield one stream a step apart.
		g7, g8 := newOpGen(spec, 16<<20, 7, 0), newOpGen(spec, 16<<20, 8, 0)
		g7.next()
		same := 0
		for i := 0; i < 1000; i++ {
			if g7.next().off == g8.next().off {
				same++
			}
		}
		if same > 500 {
			t.Errorf("%s: seed 8's stream is seed 7's shifted by one (%d of 1000 offsets equal)", name, same)
		}
	}
}

// quickRun runs one workload at -quick sizes with a short window.
func quickRun(t *testing.T, workload string, trace bool, seed uint64, spansOut string) *result {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := run(ctx, config{workload: workload, seed: seed, window: 300 * time.Millisecond,
		trace: trace, quick: true, spansOut: spansOut, root: root})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.correct || res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.correct, res.attempted, res.failed)
	}
	return res
}

// TestQuickSmoke runs every workload once with tracing off and once
// traced, and checks that each prints exactly the declared metrics,
// that outputs verified, and that the fragment path is exercised by
// live-unaligned only.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	for _, workload := range []string{"live-unaligned", "live-aligned-large", "live-small-read", simEval} {
		e2e := quickRun(t, workload, false, 1, "")
		for _, d := range endToEnd {
			if v, ok := e2e.metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, v)
			}
		}
		if len(e2e.metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", workload, len(e2e.metrics), len(endToEnd))
		}

		layers := quickRun(t, workload, true, 1, "")
		for _, d := range perLayer {
			if _, ok := layers.metrics[d.name]; !ok {
				t.Errorf("%s: layer metric %s missing", workload, d.name)
			}
		}
		if len(layers.metrics) != len(perLayer) {
			t.Errorf("%s: %d layer metrics emitted, %d declared", workload, len(layers.metrics), len(perLayer))
		}
		frags := layers.metrics["stripe.fragments_per_op"] > 0 && layers.metrics["pfsnet.fragment_writes"] > 0
		if want := workload == "live-unaligned"; frags != want {
			t.Errorf("%s: fragment path exercised = %v, want %v", workload, frags, want)
		}
		if workload != simEval {
			sum := layers.metrics["pfsnet.self_us_per_op"] + layers.metrics["logstore.covered_us_per_op"]
			if mean := layers.metrics["layers.op_mean_us"]; mean <= 0 || sum < 0.999*mean || sum > 1.001*mean {
				t.Errorf("%s: layers sum to %v us, mean request is %v us", workload, sum, mean)
			}
		}
	}
}

// TestTracedCountsRepeat checks that the exact-count layer metrics are
// a function of the seed alone, and that the span file is readable.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	spansOut := filepath.Join(t.TempDir(), "bench.spans")
	a := quickRun(t, "live-unaligned", true, 5, spansOut)
	b := quickRun(t, "live-unaligned", true, 5, "")
	for _, name := range []string{"stripe.subs_per_op", "stripe.fragments_per_op", "stripe.fragment_ws_mb",
		"pfsnet.fragment_writes", "pfsnet.fragment_reads", "pfsnet.bridge_log_mb", "logstore.calls_per_op"} {
		if a.metrics[name] != b.metrics[name] {
			t.Errorf("%s: %v then %v for the same seed", name, a.metrics[name], b.metrics[name])
		}
	}
	f, err := os.Open(spansOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, ev := range evs {
		if ev.Name == "client.op" {
			roots++
		}
	}
	if roots == 0 {
		t.Errorf("span file holds %d spans, none a client.op", len(evs))
	}
}
