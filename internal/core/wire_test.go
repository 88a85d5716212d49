package core

import (
	"testing"

	"p2pltr/internal/msg/wiretest"
)

// TestJournalStateWire round-trips a journal snapshot with every field
// set and pins its bytes in testdata/wire.golden (they seed
// FuzzJournalState).
func TestJournalStateWire(t *testing.T) {
	wiretest.Golden(t, []wiretest.Case{wiretest.RoundTrip(t, "replica_state", "FuzzJournalState", encodeState, decodeState)})
}

func FuzzJournalState(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { wiretest.Canonical(t, b, encodeState, decodeState) })
}
