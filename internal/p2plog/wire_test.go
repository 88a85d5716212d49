package p2plog

import (
	"testing"

	"p2pltr/internal/msg/wiretest"
)

// TestRecordWire round-trips a record with every field set and pins its
// bytes in testdata/wire.golden (they seed FuzzRecord).
func TestRecordWire(t *testing.T) {
	wiretest.Golden(t, []wiretest.Case{wiretest.RoundTrip(t, "record", "FuzzRecord", encodeRecord, decodeRecord)})
}

func FuzzRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { wiretest.Canonical(t, b, encodeRecord, decodeRecord) })
}
