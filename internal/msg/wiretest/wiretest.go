// Package wiretest is the shared harness of the wire codec's tests. Fill
// gives every field of a value a non-zero value, so a field the codec
// does not carry fails a round trip; Golden pins encodings in a golden
// file and keeps the fuzz seed corpora, which are those encodings, in
// step with it. After a deliberate wire change, delete the package's
// testdata/wire.golden and run its tests: the first run rewrites the
// golden file and the seeds and fails, so the rewrite is reviewed.
package wiretest

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Fill sets every settable field reachable from the pointer v to a
// non-zero value: integers from a running counter (signed ones
// alternating in sign), strings "s<n>", byte slices three bytes, other
// slices two filled elements. Interface fields are left alone.
func Fill(v any) {
	n := 0
	fill(reflect.ValueOf(v).Elem(), &n)
}

func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := int64(*n) * 1000003
		if *n%2 == 0 {
			x = -x
		}
		if v.OverflowInt(x) {
			x = int64(*n)
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := uint64(*n) * 0x9E3779B97F4A7C15
		if v.OverflowUint(x) {
			x = uint64(*n)
		}
		v.SetUint(x)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(*n), 0, 0xFF})
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), n)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, n)
			}
		}
	case reflect.Interface:
	default:
		panic(fmt.Sprintf("wiretest: cannot fill a %s", v.Type()))
	}
}

// RoundTrip fills a T, encodes and decodes it, fails unless the result
// deep-equals the filled value, and returns the encoding as a Case.
func RoundTrip[T any](t *testing.T, name, fuzz string, encode func(T) ([]byte, error), decode func([]byte) (T, error)) Case {
	t.Helper()
	var in T
	Fill(&in)
	enc, err := encode(in)
	if err != nil {
		t.Fatalf("encode %s: %v", name, err)
	}
	out, err := decode(enc)
	if err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip changed %s:\n in %+v\nout %+v", name, in, out)
	}
	return Case{Name: name, Fuzz: fuzz, Enc: enc}
}

// Canonical is the body of a decoder's fuzz target: input that decodes
// must re-encode to exactly itself. Input that fails to decode passes;
// a panic fails the target.
func Canonical[T any](t *testing.T, b []byte, encode func(T) ([]byte, error), decode func([]byte) (T, error)) {
	t.Helper()
	v, err := decode(b)
	if err != nil {
		return
	}
	enc, err := encode(v)
	if err != nil || string(enc) != string(b) {
		t.Fatalf("% x decodes to %+v, which encodes to % x (%v)", b, v, enc, err)
	}
}

// Case is one pinned encoding. Fuzz names the fuzz target the encoding
// seeds; Name labels it in the golden file and names its corpus file.
type Case struct {
	Name string
	Fuzz string
	Enc  []byte
}

// Golden compares the cases with testdata/wire.golden, one "name hex"
// line each, and each encoding with its seed file
// testdata/fuzz/<Fuzz>/<Name>. When the golden file is missing it
// writes both and fails.
func Golden(t *testing.T, cases []Case) {
	t.Helper()
	golden := filepath.Join("testdata", "wire.golden")
	var b strings.Builder
	files := []struct{ path, content string }{{path: golden}}
	for _, c := range cases {
		fmt.Fprintf(&b, "%s %s\n", c.Name, hex.EncodeToString(c.Enc))
		files = append(files, struct{ path, content string }{
			filepath.Join("testdata", "fuzz", c.Fuzz, c.Name),
			"go test fuzz v1\n[]byte(" + strconv.Quote(string(c.Enc)) + ")\n",
		})
	}
	files[0].content = b.String()
	if _, err := os.Stat(golden); errors.Is(err, fs.ErrNotExist) {
		for _, f := range files {
			if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(f.path, []byte(f.content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatalf("wrote %s and %d fuzz seeds: review and commit them", golden, len(cases))
	}
	for _, f := range files {
		path, want := f.path, f.content
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (delete %s and re-run to regenerate)", err, golden)
		}
		if string(got) != want {
			t.Fatalf("%s differs from the current encoding: a tag, field order or format byte changed "+
				"(if deliberate, delete %s and re-run)\nfile:\n%s\nnow:\n%s", path, golden, got, want)
		}
	}
}
