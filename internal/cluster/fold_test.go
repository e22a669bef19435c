package cluster_test

import (
	"maps"
	"slices"
	"testing"

	. "repro/internal/cluster"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestFoldAcrossRuns: two iBridge clusters, a write shifted 1 KB off the
// stripe and a warmed 65 KB read, run concurrently on one obs.Set. Once
// both are over, every count the registry holds for the engine, the
// block queues, the bridges and the file system is the sum of the two
// runs' Stats, and the pending gauge's maximum is the larger of the two.
func TestFoldAcrossRuns(t *testing.T) {
	defer runner.SetJobs(runner.Jobs())
	runner.SetJobs(2)
	set := obs.New(obs.Config{Metrics: true})
	clusters, err := runner.Map(2, func(i int) (*Cluster, error) {
		cfg := DefaultConfig()
		cfg.Mode = IBridge
		cfg.Seed = uint64(1 + i)
		cfg.Obs = set
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		w := workload.MPIIOTestConfig{
			Procs: 16, RequestSize: 64 * workload.KB, Shift: workload.KB,
			FileBytes: 16 * workload.MB, Write: true,
			Jitter: workload.DefaultJitter, Seed: cfg.Seed,
		}
		if i == 1 {
			w.RequestSize, w.Shift, w.Write, w.Warm = 65*workload.KB, 0, false, true
		}
		_, err = c.Run(workload.MPIIOTest(w))
		return c, err
	})
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]int64{}
	maxPending := 0
	for _, c := range clusters {
		es := c.Engine.Stats()
		want["engine.events"] += es.Events
		want["engine.resumes"] += es.Resumes
		want["engine.procs_started"] += es.ProcsStarted
		maxPending = max(maxPending, es.MaxPending)
		disk, ssd := c.Queues()
		for class, qs := range map[string][]*iosched.Queue{"iosched.hdd": disk, "iosched.ssd": ssd} {
			for _, q := range qs {
				st := q.Stats()
				want[class+".submitted"] += st.Submitted
				want[class+".dispatches"] += st.Dispatches
				want[class+".back_merges"] += st.BackMerges
				want[class+".front_merges"] += st.FrontMerges
			}
		}
		for _, b := range c.Bridges {
			st := b.Stats()
			want["bridge.hits"] += st.Hits
			want["bridge.misses"] += st.Misses
			want["bridge.evictions"] += st.Evictions
			want["bridge.rejections"] += st.Rejections
			want["bridge.offloads_boosted"] += st.BoostedOffloads
			want["bridge.offloads_plain"] += st.PlainOffloads
		}
		fs := c.FS.Stats()
		want["pfs.requests"] += fs.Requests
		want["pfs.sub_requests"] += fs.SubCount
		want["pfs.fragments"] += fs.Fragments
	}
	for _, name := range []string{"bridge.hits", "bridge.offloads_boosted", "iosched.ssd.submitted", "iosched.hdd.back_merges", "pfs.fragments"} {
		if want[name] == 0 {
			t.Errorf("%s is 0 over both runs: the runs are too tame to test the fold", name)
		}
	}
	got := set.Registry().CounterValues()
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if got[name] != want[name] {
			t.Errorf("%s = %d in the registry, want %d, the sum of the runs' Stats", name, got[name], want[name])
		}
	}
	if g := set.Registry().Gauge("engine.pending").Max(); g != int64(maxPending) {
		t.Errorf("engine.pending max = %d, want %d", g, maxPending)
	}
}
