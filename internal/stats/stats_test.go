package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "demo",
		Title:   "a demo table",
		Columns: []string{"name", "value"},
	}
	tbl.AddRow("alpha", "1.0")
	tbl.AddRow("beta", "2.5")
	tbl.Note("a note with %d parts", 2)
	out := tbl.Render()
	for _, want := range []string{"== demo: a demo table ==", "alpha", "beta", "2.5", "note: a note with 2 parts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Columns must align: "alpha" and "beta " occupy the same width.
	lines := strings.Split(out, "\n")
	var alphaIdx, betaIdx int
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") {
			alphaIdx = strings.Index(l, "1.0")
		}
		if strings.HasPrefix(l, "beta") {
			betaIdx = strings.Index(l, "2.5")
		}
	}
	if alphaIdx == 0 || alphaIdx != betaIdx {
		t.Fatalf("columns misaligned: %d vs %d\n%s", alphaIdx, betaIdx, out)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{{0, 1}, {100, 5}, {50, 3}, {20, 1}, {80, 4}}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileWithinRange(t *testing.T) {
	if err := quick.Check(func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if len(xs) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		v := Percentile(xs, p)
		return v >= lo && v <= hi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100, 150); got != "+50%" {
		t.Fatalf("Speedup = %q", got)
	}
	if got := Speedup(100, 80); got != "-20%" {
		t.Fatalf("Speedup = %q", got)
	}
	if got := Speedup(0, 80); got != "n/a" {
		t.Fatalf("Speedup = %q", got)
	}
}
