package pfsnet

import (
	"testing"

	"repro/internal/storetest"
)

// The storetest conformance suite pins the ObjectStore contract for
// the in-tree pfsnet store; logstore runs the same suite in its own
// package. A store that diverges on sparse reads, zero-fill, negative
// offsets, or concurrent readers fails here, not in a data-server
// integration test three layers up.

func TestMemStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Store {
		return NewMemStore()
	})
}
