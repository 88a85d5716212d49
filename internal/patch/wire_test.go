package patch

import (
	"testing"

	"p2pltr/internal/msg/wiretest"
)

// TestPatchWire round-trips a patch with every field set and pins its
// bytes in testdata/wire.golden (they seed FuzzPatch).
func TestPatchWire(t *testing.T) {
	wiretest.Golden(t, []wiretest.Case{wiretest.RoundTrip(t, "patch", "FuzzPatch", Patch.Encode, Decode)})
}

func FuzzPatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { wiretest.Canonical(t, b, Patch.Encode, Decode) })
}
