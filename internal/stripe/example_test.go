package stripe_test

import (
	"fmt"

	"repro/internal/stripe"
)

// The paper's Pattern II: a 65 KB request on an 8-server file system with
// a 64 KB striping unit decomposes into a full striping unit plus a 1 KB
// fragment on the next server.
func ExampleLayout_DecomposeFlagged() {
	layout := stripe.Layout{Unit: 64 * 1024, Servers: 8}
	for _, sub := range layout.DecomposeFlagged(0, 65*1024, 20*1024) {
		fmt.Println(sub)
	}
	// Output:
	// srv0[0+65536]
	// srv1[0+1024] frag
}

// Pattern III: a 64 KB request shifted by 10 KB spans two servers; the
// 10 KB piece is flagged as a fragment carrying its sibling's identity.
func ExampleLayout_DecomposeFlagged_offset() {
	layout := stripe.Layout{Unit: 64 * 1024, Servers: 8}
	subs := layout.DecomposeFlagged(10*1024, 64*1024, 20*1024)
	for _, sub := range subs {
		fmt.Printf("%v siblings=%v\n", sub, sub.Siblings)
	}
	// Output:
	// srv0[10240+55296] siblings=[]
	// srv1[0+10240] frag siblings=[0]
}
