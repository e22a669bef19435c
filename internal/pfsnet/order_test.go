package pfsnet

import (
	"testing"

	"repro/internal/stripe"
)

// TestLoadHintBroadcast checks that the metadata server's T_i vector
// rides Create/Open replies as trailing bytes, lands in the
// client's hint table keyed by server address, and rejects a
// wrong-length vector.
func TestLoadHintBroadcast(t *testing.T) {
	meta := testCluster(t, 3, 4096, false)
	setup := NewClient(meta)
	if _, err := setup.Create("hints", 1<<20); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	// Reach the MetaServer through a fresh server set: testCluster hides
	// the handle, so build an explicit cluster instead.
	var addrs []string
	for i := 0; i < 3; i++ {
		ds, err := NewDataServer("127.0.0.1:0", false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	ms, err := NewMetaServer("127.0.0.1:0", 4096, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	if err := ms.SetLoadHints([]float64{1.5, 0.5, 8}); err != nil {
		t.Fatal(err)
	}
	if err := ms.SetLoadHints([]float64{1, 2}); err == nil {
		t.Fatal("wrong-length hint vector accepted")
	}

	c := NewClient(ms.Addr())
	defer c.Close()
	if _, err := c.Create("hints", 1<<20); err != nil {
		t.Fatal(err)
	}
	got := c.LoadHints()
	want := map[string]float64{addrs[0]: 1.5, addrs[1]: 0.5, addrs[2]: 8}
	if len(got) != len(want) {
		t.Fatalf("LoadHints = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("LoadHints[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// TestOrderGroupsSlowestFirst checks issue ordering: with load hints
// installed, the predicted-slowest server group (hint × queued bytes) is
// submitted first, ties and equal costs keep their original order, and a
// client with no hints leaves the order untouched.
func TestOrderGroupsSlowestFirst(t *testing.T) {
	f := &File{servers: []string{"a:1", "b:1", "c:1"}}
	mk := func() [][]stripe.Sub {
		return [][]stripe.Sub{
			{{Server: 0, Length: 100}},
			{{Server: 1, Length: 100}},
			{{Server: 2, Length: 100}},
		}
	}

	c := NewClient("127.0.0.1:1")
	c.SetLoadHints(map[string]float64{"a:1": 1, "b:1": 9, "c:1": 3})
	groups := mk()
	c.orderGroups(f, groups, "read")
	order := []int{groups[0][0].Server, groups[1][0].Server, groups[2][0].Server}
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("issue order = %v, want slowest-first [1 2 3]→[b c a]", order)
	}

	// Byte volume scales the prediction: a big group on a fast server
	// outranks a small one on a slow server.
	c2 := NewClient("127.0.0.1:1")
	c2.SetLoadHints(map[string]float64{"a:1": 1, "b:1": 2, "c:1": 1})
	groups = [][]stripe.Sub{
		{{Server: 0, Length: 10}},
		{{Server: 1, Length: 10}},   // cost 20
		{{Server: 2, Length: 1000}}, // cost 1000: slowest overall
	}
	c2.orderGroups(f, groups, "read")
	if groups[0][0].Server != 2 || groups[1][0].Server != 1 {
		t.Fatalf("volume-weighted order = [%d %d %d], want c first then b",
			groups[0][0].Server, groups[1][0].Server, groups[2][0].Server)
	}

	// No hints: a strict no-op.
	plain := NewClient("127.0.0.1:1")
	groups = mk()
	plain.orderGroups(f, groups, "read")
	for i, g := range groups {
		if g[0].Server != i {
			t.Fatalf("unarmed orderGroups reordered groups: %v", groups)
		}
	}
}
