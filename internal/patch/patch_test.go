package patch

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDocumentBasics(t *testing.T) {
	d := NewDocument("")
	if d.Len() != 0 {
		t.Fatalf("empty doc has %d lines", d.Len())
	}
	d = NewDocument("a\nb\nc")
	if d.Len() != 3 || d.Line(1) != "b" {
		t.Fatalf("bad parse: %v", d.Lines())
	}
	if d.String() != "a\nb\nc" {
		t.Fatalf("round trip: %q", d.String())
	}
	c := d.Clone()
	if !c.Equal(d) {
		t.Fatalf("clone differs")
	}
	if err := c.Apply(Op{Kind: OpInsert, Pos: 0, Line: "z"}); err != nil {
		t.Fatal(err)
	}
	if c.Equal(d) {
		t.Fatalf("clone aliased original")
	}
}

func TestApplyInsert(t *testing.T) {
	d := NewDocument("a\nc")
	if err := d.Apply(Op{Kind: OpInsert, Pos: 1, Line: "b"}); err != nil {
		t.Fatal(err)
	}
	if d.String() != "a\nb\nc" {
		t.Fatalf("got %q", d.String())
	}
	// Append at end.
	if err := d.Apply(Op{Kind: OpInsert, Pos: 3, Line: "d"}); err != nil {
		t.Fatal(err)
	}
	if d.String() != "a\nb\nc\nd" {
		t.Fatalf("got %q", d.String())
	}
}

func TestApplyDelete(t *testing.T) {
	d := NewDocument("a\nb\nc")
	if err := d.Apply(Op{Kind: OpDelete, Pos: 1, Line: "b"}); err != nil {
		t.Fatal(err)
	}
	if d.String() != "a\nc" {
		t.Fatalf("got %q", d.String())
	}
}

func TestApplyOutOfBounds(t *testing.T) {
	d := NewDocument("a")
	for _, op := range []Op{
		{Kind: OpInsert, Pos: -1, Line: "x"},
		{Kind: OpInsert, Pos: 2, Line: "x"},
		{Kind: OpDelete, Pos: 1},
		{Kind: OpDelete, Pos: -1},
	} {
		if err := d.Apply(op); err == nil {
			t.Fatalf("op %v applied out of bounds", op)
		}
	}
	if d.String() != "a" {
		t.Fatalf("failed op mutated doc: %q", d.String())
	}
}

func TestApplyNop(t *testing.T) {
	d := NewDocument("a")
	if err := d.Apply(Op{Kind: OpNop, Pos: 999}); err != nil {
		t.Fatalf("nop failed: %v", err)
	}
	if d.String() != "a" {
		t.Fatalf("nop mutated doc")
	}
}

func TestApplyPatchStopsAtError(t *testing.T) {
	d := NewDocument("a")
	p := Patch{ID: "u#1", Ops: []Op{
		{Kind: OpInsert, Pos: 0, Line: "x"},
		{Kind: OpDelete, Pos: 99},
	}}
	if err := d.ApplyPatch(p); err == nil {
		t.Fatalf("expected error")
	}
}

func TestPatchEncodeDecode(t *testing.T) {
	p := Patch{
		ID:     NewPatchID("site-a", 7),
		Author: "site-a",
		BaseTS: 41,
		Ops: []Op{
			{Kind: OpInsert, Pos: 0, Line: "hello"},
			{Kind: OpDelete, Pos: 3, Line: "bye"},
			{Kind: OpNop},
		},
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != p.ID || q.Author != p.Author || q.BaseTS != p.BaseTS || len(q.Ops) != 3 {
		t.Fatalf("round trip: %+v", q)
	}
	if q.Ops[0] != p.Ops[0] || q.Ops[1] != p.Ops[1] {
		t.Fatalf("ops differ: %+v", q.Ops)
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Fatalf("decode accepted garbage")
	}
}

func TestPatchID(t *testing.T) {
	if NewPatchID("u1", 3) != "u1#3" {
		t.Fatalf("got %q", NewPatchID("u1", 3))
	}
}

func TestCloneIsolation(t *testing.T) {
	p := Patch{ID: "x", Ops: []Op{{Kind: OpInsert, Pos: 1, Line: "l"}}}
	q := p.Clone()
	q.Ops[0].Pos = 99
	if p.Ops[0].Pos != 1 {
		t.Fatalf("clone aliased ops")
	}
}

func TestDiffBasic(t *testing.T) {
	a := NewDocument("one\ntwo\nthree")
	b := NewDocument("one\n2\nthree\nfour")
	ops := Diff(a, b)
	got := a.Clone()
	for _, op := range ops {
		if err := got.Apply(op); err != nil {
			t.Fatalf("apply diff op %v: %v", op, err)
		}
	}
	if !got.Equal(b) {
		t.Fatalf("diff did not reproduce target: %q vs %q", got.String(), b.String())
	}
}

func TestDiffEmptyCases(t *testing.T) {
	empty := NewDocument("")
	full := NewDocument("a\nb")
	if ops := Diff(empty, empty); len(ops) != 0 {
		t.Fatalf("diff of empty docs: %v", ops)
	}
	for _, c := range []struct{ a, b *Document }{{empty, full}, {full, empty}} {
		got := c.a.Clone()
		for _, op := range Diff(c.a, c.b) {
			if err := got.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		if !got.Equal(c.b) {
			t.Fatalf("diff empty case failed")
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	d := NewDocument("x\ny\nz")
	if ops := Diff(d, d.Clone()); len(ops) != 0 {
		t.Fatalf("identical docs produced ops: %v", ops)
	}
}

// randomDoc builds a document of up to n lines over a tiny alphabet so
// diffs exercise matching lines heavily.
func randomDoc(r *rand.Rand, n int) *Document {
	lines := make([]string, r.Intn(n+1))
	for i := range lines {
		lines[i] = string(rune('a' + r.Intn(4)))
	}
	return FromLines(lines)
}

// Property: applying Diff(a,b) to a always yields b.
func TestDiffProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randomDoc(r, 12), randomDoc(r, 12)
		got := a.Clone()
		for _, op := range Diff(a, b) {
			if err := got.Apply(op); err != nil {
				t.Fatalf("case %d: apply %v: %v\na=%q b=%q", i, op, err, a.String(), b.String())
			}
		}
		if !got.Equal(b) {
			t.Fatalf("case %d: got %q want %q (from %q)", i, got.String(), b.String(), a.String())
		}
	}
}

// Property: encode/decode round-trips arbitrary patches.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(id, author string, baseTS uint64, poss []uint8, lines []string) bool {
		p := Patch{ID: id, Author: author, BaseTS: baseTS}
		for i, pos := range poss {
			line := ""
			if i < len(lines) {
				line = lines[i]
			}
			p.Ops = append(p.Ops, Op{Kind: OpKind(pos % 3), Pos: int(pos), Line: line})
		}
		b, err := p.Encode()
		if err != nil {
			return false
		}
		q, err := Decode(b)
		if err != nil {
			return false
		}
		if q.ID != p.ID || q.Author != p.Author || q.BaseTS != p.BaseTS || len(q.Ops) != len(p.Ops) {
			return false
		}
		for i := range q.Ops {
			if q.Ops[i] != p.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if s := (Op{Kind: OpInsert, Pos: 2, Line: "x"}).String(); !strings.Contains(s, "ins@2") {
		t.Fatalf("got %q", s)
	}
	if s := (Op{Kind: OpNop}).String(); s != "nop" {
		t.Fatalf("got %q", s)
	}
	if (OpKind(9)).String() == "" {
		t.Fatalf("unknown kind should still render")
	}
}
