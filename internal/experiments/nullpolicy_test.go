package experiments

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestNullPoliciesEqualStock: an iBridge cluster whose policy can do
// nothing — no fragment or random request flagged (both thresholds 0),
// none small enough to be flagged (both thresholds 1 byte), or no SSD
// to put one in — runs each of the 12 stock grid points exactly as the
// stock cluster does: the same elapsed and flush time, bytes, requests,
// mean service time, measured window and disk statistics. So does the
// default iBridge on the two 64 KB +0 KB points, whose aligned requests
// leave no fragment. A failing row is a bug in the iBridge path, not a
// tolerance to widen. On the other 10 stock points the default iBridge
// must differ, or the comparison could not tell the two apart.
func TestNullPoliciesEqualStock(t *testing.T) {
	outcome := func(c *cluster.Cluster, res cluster.Result, rep *workload.Report) string {
		return fmt.Sprintf("elapsed=%d flush=%d bytes=%d requests=%d service=%d window=[%d,%d] %d bytes disks=%+v",
			res.Elapsed, res.FlushTime, res.Bytes, res.Requests, res.AvgServiceTime, rep.Start, rep.End, rep.Bytes, c.DiskStats())
	}
	type variant struct {
		name   string
		edit   func(*cluster.Config)
		points func(i int) bool // the stock points it applies to
		same   bool             // whether it must equal stock there
	}
	all := func(int) bool { return true }
	aligned := func(i int) bool { return fig4Cases()[i/4].name == "+0KB" }
	ibridge := func(cfg *cluster.Config) { cfg.Mode = cluster.IBridge }
	variants := []variant{
		{"stock", func(*cluster.Config) {}, all, true},
		{"thresholds 0", func(cfg *cluster.Config) {
			cfg.Mode, cfg.FragmentThreshold, cfg.RandomThreshold = cluster.IBridge, 0, 0
		}, all, true},
		{"thresholds 1", func(cfg *cluster.Config) {
			cfg.Mode, cfg.FragmentThreshold, cfg.RandomThreshold = cluster.IBridge, 1, 1
		}, all, true},
		{"no SSD", func(cfg *cluster.Config) { cfg.Mode, cfg.IBridge.SSDCapacity = cluster.IBridge, 0 }, all, true},
		{"default iBridge", ibridge, aligned, true},
		{"default iBridge", ibridge, func(i int) bool { return !aligned(i) }, false},
	}
	var stock []int
	for i := 0; i < 24; i++ {
		if gridPointMode(i) == cluster.Stock {
			stock = append(stock, i)
		}
	}
	type job struct {
		point int
		v     variant
	}
	var jobs []job
	for _, v := range variants {
		for _, i := range stock {
			if v.points(i) {
				jobs = append(jobs, job{i, v})
			}
		}
	}
	outs, err := runner.Map(len(jobs), func(k int) (string, error) {
		c, res, rep, err := runGridPointWith(jobs[k].point, jobs[k].v.edit)
		if err != nil {
			return "", err
		}
		return outcome(c, res, rep), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for k, j := range jobs {
		if j.v.name == "stock" {
			want[j.point] = outs[k]
			continue
		}
		if (outs[k] == want[j.point]) != j.v.same {
			t.Errorf("%s, %s (equal to stock: want %v): %s\nstock: %s", gridPointName(j.point), j.v.name, j.v.same, outs[k], want[j.point])
		}
	}
	if len(jobs) != 12+3*12+12 {
		t.Errorf("%d runs, want 12 stock points, 36 null-policy rows and 12 default iBridge rows", len(jobs))
	}
}

// TestRoomyCacheNeverRefusesOrEvicts: with an SSD of at least twice a
// point's file bytes at every server, none of the 12 iBridge grid
// points refuses an admission for space or evicts a cached extent. A
// refusal or eviction here is a bug in the cache's space accounting,
// not a capacity to raise.
func TestRoomyCacheNeverRefusesOrEvicts(t *testing.T) {
	const ssd = 2 * gridFileBytes
	var points []int
	for i := 0; i < 24; i++ {
		if gridPointMode(i) == cluster.IBridge {
			points = append(points, i)
		}
	}
	results, err := runner.Map(len(points), func(k int) (cluster.Result, error) {
		_, res, _, err := runGridPointWith(points[k], func(cfg *cluster.Config) {
			cfg.IBridge.SSDCapacity = ssd
		})
		return res, err
	})
	if err != nil {
		t.Fatal(err)
	}
	admitted := int64(0)
	for k, res := range results {
		b := res.Bridge
		if b.Rejections != 0 || b.Evictions != 0 {
			t.Errorf("%s: %d rejections, %d evictions with a %d-byte SSD per server",
				gridPointName(points[k]), b.Rejections, b.Evictions, ssd)
		}
		for _, n := range b.Admissions {
			admitted += n
		}
	}
	if admitted == 0 {
		t.Error("no point admitted anything: the relation holds vacuously")
	}
}
