package logstore

import (
	"testing"

	"repro/internal/storetest"
)

// LogStore runs the same storetest conformance suite as MemStore
// (pfsnet's store_conformance_test.go): identical sparse, zero-fill,
// negative-offset, and concurrency semantics, plus the durability this
// package adds on top.
func TestLogStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Store {
		s, err := Open(t.TempDir(), Config{NoCompactor: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}
