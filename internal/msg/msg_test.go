package msg

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestNodeRef(t *testing.T) {
	var zero NodeRef
	if !zero.IsZero() {
		t.Fatalf("zero ref not zero")
	}
	if zero.String() != "<nil-node>" {
		t.Fatalf("zero string %q", zero.String())
	}
	ref := NodeRef{ID: 0xAB, Addr: "host:1"}
	if ref.IsZero() {
		t.Fatalf("non-zero ref reported zero")
	}
	if !strings.Contains(ref.String(), "host:1") {
		t.Fatalf("string %q", ref.String())
	}
}

func TestKindsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range All() {
		k := m.Kind()
		if k == "" {
			t.Fatalf("%T has empty kind", m)
		}
		if seen[k] {
			t.Fatalf("duplicate kind %q", k)
		}
		seen[k] = true
	}
}

// roundTripFrame sends m through one TCP frame, as the transport does,
// and returns what the reading side decodes.
func roundTripFrame(t *testing.T, m Message) Message {
	t.Helper()
	frame, err := EncodeFrame(0x81, func(c *Coder) { c.Message(&m) })
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	var out Message
	if err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), 0x81, func(c *Coder) { c.Message(&out) }); err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return out
}

// TestGobRoundTripAllTypes keeps the name it had when messages crossed
// TCP as gob; it checks the same property through the wire codec: every
// message type, sent as its zero value through the Message interface,
// comes back as the same type.
func TestGobRoundTripAllTypes(t *testing.T) {
	for _, m := range All() {
		out := roundTripFrame(t, m)
		if reflect.TypeOf(out) != reflect.TypeOf(m) || out.Kind() != m.Kind() {
			t.Fatalf("round trip changed type: %T (%s) -> %T (%s)", m, m.Kind(), out, out.Kind())
		}
	}
}

// TestGobPreservesFields keeps its gob-era name; it checks that a
// ValidateReq's fields survive one frame of the wire codec.
func TestGobPreservesFields(t *testing.T) {
	in := &ValidateReq{Key: "doc", TS: 42, Patch: []byte{1, 2, 3}, PatchID: "a#7"}
	got, ok := roundTripFrame(t, in).(*ValidateReq)
	if !ok {
		t.Fatalf("type lost")
	}
	if got.Key != in.Key || got.TS != in.TS || got.PatchID != in.PatchID || !bytes.Equal(got.Patch, in.Patch) {
		t.Fatalf("fields lost: %+v", got)
	}
}

func TestValidateStatusString(t *testing.T) {
	cases := map[ValidateStatus]string{
		ValidateOK:        "ok",
		ValidateBehind:    "behind",
		ValidateNotMaster: "not-master",
		ValidateStatus(9): "status(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d -> %q, want %q", s, s.String(), want)
		}
	}
}
