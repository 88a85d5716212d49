package checkpoint

import (
	"testing"

	"p2pltr/internal/msg/wiretest"
)

func encodeCheckpoint(cp Checkpoint) ([]byte, error) { return encode(checkpointFormat, cp.wire) }
func encodePointer(p Pointer) ([]byte, error)        { return encode(pointerFormat, p.wire) }

// TestCheckpointWire round-trips a checkpoint and a pointer with every
// field set and pins their bytes in testdata/wire.golden (they seed
// FuzzCheckpoint and FuzzPointer).
func TestCheckpointWire(t *testing.T) {
	wiretest.Golden(t, []wiretest.Case{
		wiretest.RoundTrip(t, "checkpoint", "FuzzCheckpoint", encodeCheckpoint, decodeCheckpoint),
		wiretest.RoundTrip(t, "pointer", "FuzzPointer", encodePointer, decodePointer),
	})
}

func FuzzCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { wiretest.Canonical(t, b, encodeCheckpoint, decodeCheckpoint) })
}

func FuzzPointer(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { wiretest.Canonical(t, b, encodePointer, decodePointer) })
}
