package msg

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"p2pltr/internal/ids"
)

// The wire codec. One Coder either writes or reads a value, and each type
// lists its fields once, in a wire method beside the type, that both
// directions run: the order a field is written in is by construction the
// order it is read in.
//
// Primitives: unsigned integers are minimal uvarints, signed ones zigzag
// varints, a uint8 one byte, a bool one byte (0 or 1), an ids.ID eight
// bytes little-endian, strings and byte slices a uvarint length then the
// bytes, a slice a uvarint count then its elements. Encoding is
// canonical: a decoder rejects non-minimal varints, bool bytes other than
// 0 and 1, unknown tags and trailing bytes, so every value has exactly one
// encoding and a successful decode re-encodes to its input. Empty slices
// decode as nil. A length or count larger than the bytes left fails
// before anything is allocated.

// ErrFormat reports a stored value or frame whose leading format or
// version byte is not the one expected.
var ErrFormat = errors.New("msg: unknown format byte")

// MaxFrame is the largest TCP frame either side accepts. A longer frame
// fails the connection instead of being allocated.
const MaxFrame = 64 << 20

// Coder writes or reads one value's fields: a type's wire method calls
// one field method per field. Errors are sticky: after a decoding
// failure every later read is a no-op, and the first error is the one
// reported.
type Coder struct {
	buf []byte // encoding: the output so far; decoding: the unread input
	dec bool
	err error
}

// encode runs wire on a Coder that appends to buf.
func encode(buf []byte, wire func(*Coder)) ([]byte, error) {
	c := &Coder{buf: buf}
	wire(c)
	return c.buf, c.err
}

// decode runs wire on a Coder that reads b, which it must consume
// entirely. The decoded value shares no memory with b.
func decode(b []byte, wire func(*Coder)) error {
	c := &Coder{buf: b, dec: true}
	wire(c)
	if c.err == nil && len(c.buf) > 0 {
		return fmt.Errorf("msg: %d trailing bytes", len(c.buf))
	}
	return c.err
}

func (c *Coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("msg: "+format, args...)
	}
	c.buf = nil
}

// uvarint reads one minimal uvarint.
func (c *Coder) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	switch {
	case n == 0:
		c.fail("truncated varint")
		return 0
	case n < 0:
		c.fail("varint overflows 64 bits")
		return 0
	case n > 1 && c.buf[n-1] == 0:
		c.fail("non-minimal varint")
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// take reads the next n bytes, failing if fewer remain.
func (c *Coder) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf)) {
		c.fail("length %d exceeds the %d bytes left", n, len(c.buf))
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// Uint64 codes an unsigned integer.
func (c *Coder) Uint64(v *uint64) {
	if c.dec {
		*v = c.uvarint()
	} else {
		c.buf = binary.AppendUvarint(c.buf, *v)
	}
}

// Int64 codes a signed integer.
func (c *Coder) Int64(v *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	u := c.uvarint()
	*v = int64(u>>1) ^ -int64(u&1)
}

// Int codes an int.
func (c *Coder) Int(v *int) {
	x := int64(*v)
	c.Int64(&x)
	if !c.dec {
		return
	}
	if int64(int(x)) != x {
		c.fail("%d overflows int", x)
		return
	}
	*v = int(x)
}

// Duration codes a time.Duration.
func (c *Coder) Duration(v *time.Duration) { c.Int64((*int64)(v)) }

// Uint8 codes one byte.
func (c *Coder) Uint8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// Bool codes a bool as one byte, 0 or 1.
func (c *Coder) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.Uint8(&b)
	if !c.dec {
		return
	}
	if b > 1 {
		c.fail("bool byte %d", b)
		return
	}
	*v = b == 1
}

// ID codes a ring identifier as eight bytes.
func (c *Coder) ID(v *ids.ID) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = ids.ID(binary.LittleEndian.Uint64(b))
	}
}

// String codes a length-prefixed string.
func (c *Coder) String(v *string) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*v)))
		c.buf = append(c.buf, *v...)
		return
	}
	*v = string(c.take(c.uvarint()))
}

// Bytes codes a length-prefixed byte slice; empty decodes as nil.
func (c *Coder) Bytes(v *[]byte) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*v)))
		c.buf = append(c.buf, *v...)
		return
	}
	b := c.take(c.uvarint())
	if len(b) == 0 {
		*v = nil
		return
	}
	*v = append([]byte(nil), b...)
}

// Slice codes a count-prefixed slice, each element by elem. minSize is
// the fewest bytes one element encodes to; a count the remaining input
// cannot hold fails before the slice is allocated. Empty decodes as nil.
func Slice[T any](c *Coder, s *[]T, minSize int, elem func(*T, *Coder)) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		for i := range *s {
			elem(&(*s)[i], c)
		}
		return
	}
	n := c.uvarint()
	if n > uint64(len(c.buf)/minSize) {
		c.fail("count %d exceeds what the %d bytes left can hold", n, len(c.buf))
	}
	if c.err != nil || n == 0 {
		*s = nil
		return
	}
	out := make([]T, n)
	for i := range out {
		elem(&out[i], c)
	}
	*s = out
}

// StringElem is Slice's element function for a []string.
func StringElem(v *string, c *Coder) { c.String(v) }

// Marshal encodes a stored value: its format byte, then the fields wire
// visits. The result's capacity is its length, since stores keep it.
func Marshal(format byte, wire func(*Coder)) ([]byte, error) {
	var scratch [256]byte
	b, err := encode(append(scratch[:0], format), wire)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// Unmarshal decodes a value Marshal encoded with the same format byte.
func Unmarshal(b []byte, format byte, wire func(*Coder)) error {
	if err := checkFormat(b, format); err != nil {
		return err
	}
	return decode(b[1:], wire)
}

// checkFormat names a gob stream explicitly: gob's first byte is a
// message length, which is never in 0x80–0xF7, the range every format
// byte of this codec is drawn from.
func checkFormat(b []byte, want byte) error {
	switch {
	case len(b) == 0:
		return fmt.Errorf("%w: empty input", ErrFormat)
	case b[0] == want:
		return nil
	case b[0] < 0x80 || b[0] > 0xF7:
		return fmt.Errorf("%w 0x%02x, want 0x%02x (gob-encoded by an older release?)", ErrFormat, b[0], want)
	default:
		return fmt.Errorf("%w 0x%02x, want 0x%02x", ErrFormat, b[0], want)
	}
}

// EncodeFrame encodes one stream frame into a fresh buffer: the uvarint
// length of what follows, the version byte, then the fields wire visits.
func EncodeFrame(version byte, wire func(*Coder)) ([]byte, error) {
	const pre = binary.MaxVarintLen64
	b, err := encode(append(make([]byte, pre, 256), version), wire)
	if err != nil {
		return nil, err
	}
	n := len(b) - pre
	if n > MaxFrame {
		return nil, fmt.Errorf("msg: frame of %d bytes exceeds the %d-byte ceiling", n, MaxFrame)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenBuf[:], uint64(n))
	copy(b[pre-k:], lenBuf[:k])
	return b[pre-k:], nil
}

// ReadFrame reads one frame EncodeFrame wrote with the same version byte
// and decodes its fields with wire. It returns io.EOF only when r ends
// cleanly between frames. A frame that fits r's buffer is decoded in
// place; a larger one is read into a buffer of its own, garbage once
// decoded.
func ReadFrame(r *bufio.Reader, version byte, wire func(*Coder)) error {
	n, err := readFrameLen(r)
	if err != nil {
		return err
	}
	var b []byte
	if n <= r.Size() {
		if b, err = r.Peek(n); err != nil {
			return unexpectedEOF(err)
		}
		defer r.Discard(n)
	} else {
		b = make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return unexpectedEOF(err)
		}
	}
	if err := checkFormat(b, version); err != nil {
		return err
	}
	return decode(b[1:], wire)
}

// readFrameLen reads a frame's length prefix: a minimal uvarint in
// (0, MaxFrame], so at most four bytes.
func readFrameLen(r io.ByteReader) (int, error) {
	var v uint64
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 {
				return 0, unexpectedEOF(err)
			}
			return 0, err
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b >= 0x80 {
			continue
		}
		if i > 0 && b == 0 {
			return 0, errors.New("msg: non-minimal frame length")
		}
		if v == 0 || v > MaxFrame {
			return 0, fmt.Errorf("msg: frame length %d outside (0, %d]", v, MaxFrame)
		}
		return int(v), nil
	}
	return 0, fmt.Errorf("msg: frame length exceeds %d", MaxFrame)
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
