package msg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"p2pltr/internal/msg/wiretest"
)

func encodeMessage(m Message) ([]byte, error) {
	return encode(nil, func(c *Coder) { c.Message(&m) })
}

func decodeMessage(b []byte) (Message, error) {
	var m Message
	err := decode(b, func(c *Coder) { c.Message(&m) })
	return m, err
}

// TestWireRoundTripAllTypes round-trips the zero value and a value with
// every field set of each message type, and pins the latter's bytes in
// testdata/wire.golden (they seed FuzzMessage).
func TestWireRoundTripAllTypes(t *testing.T) {
	var cases []wiretest.Case
	for i, m := range All() {
		filled := All()[i]
		wiretest.Fill(filled)
		for _, in := range []Message{m, filled} {
			enc, err := encodeMessage(in)
			if err != nil {
				t.Fatalf("encode %T: %v", in, err)
			}
			out, err := decodeMessage(enc)
			if err != nil {
				t.Fatalf("decode %T: %v", in, err)
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("round trip changed %T:\n in %+v\nout %+v", in, in, out)
			}
		}
		enc, _ := encodeMessage(filled)
		cases = append(cases, wiretest.Case{Name: m.Kind(), Fuzz: "FuzzMessage", Enc: enc})
	}
	wiretest.Golden(t, cases)
}

type localMsg struct{}

func (localMsg) Kind() string { return "test.local" }

func TestWireRefusesUntaggedMessages(t *testing.T) {
	for _, m := range []Message{localMsg{}, Ack{}} {
		if _, err := encodeMessage(m); err == nil || !strings.Contains(err.Error(), "no wire tag") {
			t.Fatalf("encode %T: err %v, want a missing-tag error", m, err)
		}
	}
}

func TestWireRejectsNonCanonicalInput(t *testing.T) {
	ping := byte(tagOf[PingReq{}.Kind()])
	get := byte(tagOf[DHTGetResp{}.Kind()])
	for name, b := range map[string][]byte{
		"empty":               {},
		"unknown tag":         {byte(len(wireTags))},
		"retired tag 8":       {8, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // the zero chord.handover.req
		"retired tag 9":       {9, 0},                         // the zero chord.handover.resp
		"non-minimal tag":     {ping | 0x80, 0},
		"trailing byte":       {ping, 0},
		"bool byte 2":         {get, 2, 0},
		"truncated bytes":     {get, 1, 5, 'a'},
		"varint over 64 bits": {get, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	} {
		if m, err := decodeMessage(b); err == nil {
			t.Errorf("%s: % x decoded to %#v", name, b, m)
		}
	}
}

// TestWireLengthsBeyondInputFailBeforeAllocating claims a million-byte
// string, byte slice and slice, and a frame over MaxFrame, in inputs of a
// few bytes: each must fail without allocating what it claims.
func TestWireLengthsBeyondInputFailBeforeAllocating(t *testing.T) {
	claim := func(m Message, fields ...byte) []byte {
		b := append([]byte{byte(tagOf[m.Kind()])}, fields...)
		return append(binary.AppendUvarint(b, 1<<20), "abc"...)
	}
	inputs := map[string][]byte{
		"string": claim(LastTSReq{}),
		"bytes":  claim(DHTGetResp{}, 1),
		"slice":  claim(DHTRehomeReq{}),
	}
	for name, b := range inputs {
		allocated := allocatedBy(func() {
			if _, err := decodeMessage(b); err == nil {
				t.Errorf("%s: a %d-byte input claiming 1 MiB decoded", name, len(b))
			}
		})
		if allocated > 64<<10 {
			t.Errorf("%s: failing decode allocated %d bytes", name, allocated)
		}
	}
	frame := binary.AppendUvarint(nil, MaxFrame+1)
	allocated := allocatedBy(func() {
		r := bufio.NewReader(bytes.NewReader(append(frame, 0x81, 0)))
		if err := ReadFrame(r, 0x81, func(*Coder) {}); err == nil {
			t.Errorf("a frame over MaxFrame was read")
		}
	})
	if allocated > 64<<10 {
		t.Errorf("oversized frame: allocated %d bytes", allocated)
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFormatByteNamesGob(t *testing.T) {
	nop := func(*Coder) {}
	if err := Unmarshal([]byte{0xA1}, 0xA1, nop); err != nil {
		t.Fatalf("matching format byte: %v", err)
	}
	err := Unmarshal([]byte{0x3c, 0xff, 0x81}, 0xA1, nop) // how a gob stream starts
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("gob input: err %v, want ErrFormat naming gob", err)
	}
	if err := Unmarshal([]byte{0xB1}, 0xA1, nop); !errors.Is(err, ErrFormat) {
		t.Fatalf("other format: err %v, want ErrFormat", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	for _, m := range All() {
		wiretest.Fill(m)
		frame, err := EncodeFrame(0x81, func(c *Coder) { c.Message(&m) })
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		stream = append(stream, frame...)
	}
	// A bufio buffer smaller than some frames exercises both read paths.
	r := bufio.NewReaderSize(bytes.NewReader(stream), 16)
	for _, want := range All() {
		wiretest.Fill(want)
		var got Message
		if err := ReadFrame(r, 0x81, func(c *Coder) { c.Message(&got) }); err != nil {
			t.Fatalf("read %T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame round trip changed %T", want)
		}
	}
	if err := ReadFrame(r, 0x81, func(*Coder) {}); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: err %v, want io.EOF", err)
	}
}

// FuzzMessage: decoding never panics, and whatever decodes re-encodes to
// exactly its input. Seeds: testdata/fuzz/FuzzMessage (the golden values).
func FuzzMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { wiretest.Canonical(t, b, encodeMessage, decodeMessage) })
}
