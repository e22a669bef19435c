package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/workload"
)

// cell parses a numeric table cell, stripping %, x, and unit suffixes.
func cell(t *testing.T, tbl [][]string, row, col int) float64 {
	t.Helper()
	s := tbl[row][col]
	s = strings.TrimSuffix(s, "%")
	s = strings.Fields(s)[0]
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil {
		t.Fatalf("cell [%d][%d] = %q not numeric: %v", row, col, tbl[row][col], err)
	}
	return v
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"smoke", "small", "medium", "full"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ScaleByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig2a", "fig2b", "fig2hist", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ablation-magnification", "ablation-partition", "ablation-ewma",
		"ablation-ssdlog", "ablation-writeback",
	}
	have := map[string]bool{}
	for _, id := range List() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, err := Run("nope", Smoke); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The shape tests below run the cheap experiments at Smoke scale and
// assert the qualitative claims the paper makes — the reproduction's
// regression suite.

func TestShapeTable1(t *testing.T) {
	tbl, err := Run("table1", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	// Each row's measured unaligned% within 3 points of the paper's.
	for r := range tbl.Rows {
		if d := cell(t, tbl.Rows, r, 1) - cell(t, tbl.Rows, r, 2); d > 3 || d < -3 {
			t.Errorf("row %d unaligned off by %.1f points", r, d)
		}
	}
}

func TestShapeTable2(t *testing.T) {
	tbl, err := Run("table2", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	// SSD columns within 10% of the paper's.
	for r := range tbl.Rows {
		got, want := cell(t, tbl.Rows, r, 1), cell(t, tbl.Rows, r, 2)
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("SSD %s = %.0f, paper %.0f", tbl.Rows[r][0], got, want)
		}
	}
	// HDD sequential rows match; random rows must be far below them.
	if got := cell(t, tbl.Rows, 0, 3); got < 80 || got > 90 {
		t.Errorf("HDD seq read = %.1f, want ≈85", got)
	}
	if seq, rnd := cell(t, tbl.Rows, 0, 3), cell(t, tbl.Rows, 1, 3); rnd > seq/10 {
		t.Errorf("HDD random read %.1f not ≪ sequential %.1f", rnd, seq)
	}
}

func TestShapeFig2a(t *testing.T) {
	tbl, err := Run("fig2a", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	// Aligned column (1) clearly above every unaligned column (2..5).
	for r := range tbl.Rows {
		aligned := cell(t, tbl.Rows, r, 1)
		for c := 2; c <= 5; c++ {
			if v := cell(t, tbl.Rows, r, c); v > 0.8*aligned {
				t.Errorf("row %s col %d: unaligned %.1f not below aligned %.1f",
					tbl.Rows[r][0], c, v, aligned)
			}
		}
	}
}

func TestShapeFig9(t *testing.T) {
	tbl, err := Run("fig9", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	// Execution-time reduction of at least 30% at every process count
	// (paper: 45–61%).
	for r := range tbl.Rows {
		if red := cell(t, tbl.Rows, r, 6); red < 30 {
			t.Errorf("procs %s: reduction %.0f%% below 30%%", tbl.Rows[r][0], red)
		}
	}
}

func TestShapeFig10(t *testing.T) {
	tbl, err := Run("fig10", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	// iBridge <= SSD-only < disk-only.
	for r := range tbl.Rows {
		disk, ssdOnly, ib := cell(t, tbl.Rows, r, 1), cell(t, tbl.Rows, r, 2), cell(t, tbl.Rows, r, 3)
		if !(ib <= ssdOnly*1.02 && ssdOnly < disk) {
			t.Errorf("procs %s: ordering violated: disk %.1f ssd %.1f ib %.1f",
				tbl.Rows[r][0], disk, ssdOnly, ib)
		}
	}
}

func TestShapeFig11(t *testing.T) {
	tbl, err := Run("fig11", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	// I/O time non-increasing as capacity grows.
	prev := cell(t, tbl.Rows, 0, 1)
	for r := 1; r < len(tbl.Rows); r++ {
		v := cell(t, tbl.Rows, r, 1)
		if v > prev*1.05 {
			t.Errorf("I/O time rose with capacity at row %d: %.1f after %.1f", r, v, prev)
		}
		prev = v
	}
	// Zero capacity must cost much more than full capacity.
	first, last := cell(t, tbl.Rows, 0, 1), cell(t, tbl.Rows, len(tbl.Rows)-1, 1)
	if first < 3*last {
		t.Errorf("0-capacity I/O time %.1f not ≫ full-capacity %.1f", first, last)
	}
}

func TestShapeFig13(t *testing.T) {
	tbl, err := Run("fig13", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	// Throughput and SSD usage both increase with the threshold.
	for r := 1; r < len(tbl.Rows); r++ {
		if cell(t, tbl.Rows, r, 1) < cell(t, tbl.Rows, r-1, 1)*0.95 {
			t.Errorf("throughput fell at threshold %s", tbl.Rows[r][0])
		}
		if cell(t, tbl.Rows, r, 3) <= cell(t, tbl.Rows, r-1, 3) {
			t.Errorf("SSD usage did not grow at threshold %s", tbl.Rows[r][0])
		}
	}
}

func TestShapeAblationMagnification(t *testing.T) {
	tbl, err := Run("ablation-magnification", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	on, off := cell(t, tbl.Rows, 0, 1), cell(t, tbl.Rows, 1, 1)
	if on <= off {
		t.Errorf("magnification on (%.1f) not above off (%.1f)", on, off)
	}
	if cell(t, tbl.Rows, 0, 2) <= cell(t, tbl.Rows, 1, 2) {
		t.Error("magnification did not increase fragment admissions")
	}
}

func TestShapeAblationSSDLog(t *testing.T) {
	tbl, err := Run("ablation-ssdlog", Smoke)
	if err != nil {
		t.Fatal(err)
	}
	logIO, scatterIO := cell(t, tbl.Rows, 0, 2), cell(t, tbl.Rows, 1, 2)
	if logIO >= scatterIO {
		t.Errorf("log-structured I/O time %.1f not below scattered %.1f", logIO, scatterIO)
	}
}

// TestCallbackPanicIsUnitError: a workload runs on engine callbacks, on
// the goroutine that runs the cluster, so a panic inside one (here in
// the completion of mpi-io-test's ranks, deep in a run) leaves Run and
// reaches runner.Map as the error of the unit that raised it, wrapping
// the panic value; the other units still finish.
func TestCallbackPanicIsUnitError(t *testing.T) {
	cause := errors.New("model invariant broken")
	finished := make([]bool, 3)
	_, err := runner.Map(len(finished), func(i int) (cluster.Result, error) {
		c, err := cluster.New(baseConfig(Smoke, cluster.Stock))
		if err != nil {
			return cluster.Result{}, err
		}
		w := workload.MPIIOTest(workload.MPIIOTestConfig{Procs: 4, RequestSize: 65 * kb, FileBytes: 4 * 65 * kb, Write: true})
		res, err := c.Run(func(c *cluster.Cluster, done func()) {
			w(c, func() {
				if i == 1 {
					panic(cause)
				}
				done()
			})
		})
		finished[i] = err == nil
		return res, err
	})
	if err == nil || !errors.Is(err, cause) || !strings.Contains(err.Error(), "unit 1 panicked") {
		t.Fatalf("Map err = %v, want unit 1's panic wrapping the cause", err)
	}
	if !finished[0] || !finished[2] {
		t.Errorf("units 0 and 2 finished: %v, %v; want both", finished[0], finished[2])
	}
}
