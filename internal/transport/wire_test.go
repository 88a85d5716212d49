package transport

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"p2pltr/internal/msg"
	"p2pltr/internal/msg/wiretest"
)

func encodeEnvelope(env envelope) ([]byte, error) {
	return msg.EncodeFrame(frameVersion, env.wire)
}

func decodeEnvelope(b []byte) (envelope, error) {
	return readEnvelope(bufio.NewReader(bytes.NewReader(b)))
}

// TestEnvelopeWire round-trips one frame per message type, every field
// of envelope and body set, and pins the frames in testdata/wire.golden
// (they seed FuzzReadFrame).
func TestEnvelopeWire(t *testing.T) {
	var cases []wiretest.Case
	for _, m := range msg.All() {
		wiretest.Fill(m)
		env := envelope{Body: m}
		wiretest.Fill(&env)
		frame, err := encodeEnvelope(env)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := decodeEnvelope(frame)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("round trip changed %T:\n in %+v\nout %+v", m, env, got)
		}
		cases = append(cases, wiretest.Case{Name: m.Kind(), Fuzz: "FuzzReadFrame", Enc: frame})
	}
	wiretest.Golden(t, cases)
}

// FuzzReadFrame feeds arbitrary bytes to the connection reader: it never
// panics, and a frame it accepts re-encodes to exactly the bytes it read.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := decodeEnvelope(b)
		if err != nil {
			return
		}
		frame, err := encodeEnvelope(env)
		if err != nil || !bytes.HasPrefix(b, frame) {
			t.Fatalf("% x reads as %+v, which encodes to % x (%v)", b, env, frame, err)
		}
	})
}
