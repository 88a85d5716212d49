package ot

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"p2pltr/internal/patch"
)

// applyAll applies ops to a copy of doc, clamping is not allowed: any
// out-of-bounds op is a test failure surfaced by the returned error.
func applyAll(t *testing.T, doc *patch.Document, ops []patch.Op) *patch.Document {
	t.Helper()
	d := doc.Clone()
	for _, op := range ops {
		if err := d.Apply(op); err != nil {
			t.Fatalf("apply %v to %q: %v", op, d.String(), err)
		}
	}
	return d
}

func TestTransformInsertInsertTiebreak(t *testing.T) {
	doc := patch.NewDocument("base")
	a := patch.Op{Kind: patch.OpInsert, Pos: 0, Line: "A"}
	b := patch.Op{Kind: patch.OpInsert, Pos: 0, Line: "B"}

	aP := TransformOp(a, "site1", b, "site2")
	bP := TransformOp(b, "site2", a, "site1")

	d1 := applyAll(t, doc, []patch.Op{a, bP})
	d2 := applyAll(t, doc, []patch.Op{b, aP})
	if !d1.Equal(d2) {
		t.Fatalf("TP1 violated: %q vs %q", d1.String(), d2.String())
	}
	// Deterministic: the lower site's insert ends up first.
	if d1.Line(0) != "A" {
		t.Fatalf("tiebreak order: %v", d1.Lines())
	}
}

func TestTransformDeleteDeleteSameLine(t *testing.T) {
	a := patch.Op{Kind: patch.OpDelete, Pos: 1, Line: "x"}
	b := patch.Op{Kind: patch.OpDelete, Pos: 1, Line: "x"}
	aP := TransformOp(a, "s1", b, "s2")
	if aP.Kind != patch.OpNop {
		t.Fatalf("double delete not neutralized: %v", aP)
	}
}

func TestTransformAgainstNop(t *testing.T) {
	a := patch.Op{Kind: patch.OpInsert, Pos: 3, Line: "x"}
	nop := patch.Op{Kind: patch.OpNop}
	if got := TransformOp(a, "s1", nop, "s2"); got != a {
		t.Fatalf("transform against nop changed op: %v", got)
	}
	if got := TransformOp(nop, "s1", a, "s2"); got.Kind != patch.OpNop {
		t.Fatalf("nop transformed into %v", got)
	}
}

// TestTP1Exhaustive enumerates all op pairs over a small document and
// checks the TP1 convergence property doc.a.b' == doc.b.a'.
func TestTP1Exhaustive(t *testing.T) {
	doc := patch.NewDocument("l0\nl1\nl2")
	var ops []struct {
		op   patch.Op
		site string
	}
	for pos := 0; pos <= doc.Len(); pos++ {
		for _, site := range []string{"s1", "s2"} {
			ops = append(ops, struct {
				op   patch.Op
				site string
			}{patch.Op{Kind: patch.OpInsert, Pos: pos, Line: "ins-" + site}, site})
		}
	}
	for pos := 0; pos < doc.Len(); pos++ {
		for _, site := range []string{"s1", "s2"} {
			ops = append(ops, struct {
				op   patch.Op
				site string
			}{patch.Op{Kind: patch.OpDelete, Pos: pos, Line: doc.Line(pos)}, site})
		}
	}
	for _, A := range ops {
		for _, B := range ops {
			if A.site == B.site {
				continue // concurrent ops come from different sites
			}
			aP := TransformOp(A.op, A.site, B.op, B.site)
			bP := TransformOp(B.op, B.site, A.op, A.site)
			d1 := applyAll(t, doc, []patch.Op{A.op, bP})
			d2 := applyAll(t, doc, []patch.Op{B.op, aP})
			if !d1.Equal(d2) {
				t.Fatalf("TP1 violated for a=%v(%s) b=%v(%s): %q vs %q",
					A.op, A.site, B.op, B.site, d1.String(), d2.String())
			}
		}
	}
}

// randOps produces a valid operation sequence for a document of the given
// starting length, tracking length as ops apply.
func randOps(r *rand.Rand, startLen, n int, site string) []patch.Op {
	ops := make([]patch.Op, 0, n)
	l := startLen
	for i := 0; i < n; i++ {
		if l == 0 || r.Intn(2) == 0 {
			pos := r.Intn(l + 1)
			ops = append(ops, patch.Op{Kind: patch.OpInsert, Pos: pos, Line: fmt.Sprintf("%s-%d", site, i)})
			l++
		} else {
			pos := r.Intn(l)
			ops = append(ops, patch.Op{Kind: patch.OpDelete, Pos: pos})
			l--
		}
	}
	return ops
}

// TestTransformSeqConvergenceProperty is the core randomized check:
// for random concurrent sequences A (site1) and B (site2),
// doc.A.B' == doc.B.A'.
func TestTransformSeqConvergenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		nLines := r.Intn(6)
		lines := make([]string, nLines)
		for i := range lines {
			lines[i] = fmt.Sprintf("base-%d", i)
		}
		doc := patch.FromLines(lines)
		a := randOps(r, doc.Len(), r.Intn(5), "s1")
		b := randOps(r, doc.Len(), r.Intn(5), "s2")

		aP, bP := TransformSeq(a, "s1", b, "s2")

		d1 := applyAll(t, doc, append(append([]patch.Op{}, a...), bP...))
		d2 := applyAll(t, doc, append(append([]patch.Op{}, b...), aP...))
		if !d1.Equal(d2) {
			t.Fatalf("trial %d: divergence\nbase=%q\na=%v\nb=%v\na'=%v\nb'=%v\nd1=%q\nd2=%q",
				trial, doc.String(), a, b, aP, bP, d1.String(), d2.String())
		}
	}
}

// TestTransformSeqBoundsProperty: transformed sequences never go out of
// bounds when applied after the other sequence.
func TestTransformSeqBoundsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		doc := patch.FromLines(make([]string, r.Intn(5)))
		a := randOps(r, doc.Len(), r.Intn(6), "s1")
		b := randOps(r, doc.Len(), r.Intn(6), "s2")
		aP, _ := TransformSeq(a, "s1", b, "s2")
		d := doc.Clone()
		for _, op := range b {
			if err := d.Apply(op); err != nil {
				t.Fatalf("b op invalid: %v", err)
			}
		}
		for _, op := range aP {
			if err := d.Apply(op); err != nil {
				t.Fatalf("trial %d: transformed op %v out of bounds on %q: %v", trial, op, d.String(), err)
			}
		}
	}
}

// decodeSeqCase turns fuzz bytes into a base document and one valid op
// sequence per site: b[0] picks the base length, then each of up to 64
// byte pairs (ctl, pos) appends to site ctl&1 an insert (ctl&2 == 0, or
// that site's document is empty) or a delete, at pos modulo the valid
// range. Lines are named as randOps names them.
func decodeSeqCase(b []byte) (doc *patch.Document, a, bOps []patch.Op) {
	if len(b) == 0 {
		return patch.FromLines(nil), nil, nil
	}
	lines := make([]string, b[0]%8)
	for i := range lines {
		lines[i] = fmt.Sprintf("base-%d", i)
	}
	var ops [2][]patch.Op
	l := [2]int{len(lines), len(lines)}
	sites := [2]string{"s1", "s2"}
	for i := 1; i+1 < len(b) && i < 129; i += 2 {
		side, pos := b[i]&1, int(b[i+1])
		if l[side] == 0 || b[i]&2 == 0 {
			ops[side] = append(ops[side], patch.Op{Kind: patch.OpInsert, Pos: pos % (l[side] + 1),
				Line: fmt.Sprintf("%s-%d", sites[side], len(ops[side]))})
			l[side]++
		} else {
			ops[side] = append(ops[side], patch.Op{Kind: patch.OpDelete, Pos: pos % l[side]})
			l[side]--
		}
	}
	return patch.FromLines(lines), ops[0], ops[1]
}

// encodeSeqCase is decodeSeqCase's inverse for the small cases randOps
// draws; the fuzz seeds come from it.
func encodeSeqCase(nLines int, a, b []patch.Op) []byte {
	out := []byte{byte(nLines)}
	for side, ops := range [2][]patch.Op{a, b} {
		for _, op := range ops {
			ctl := byte(side)
			if op.Kind == patch.OpDelete {
				ctl |= 2
			}
			out = append(out, ctl, byte(op.Pos))
		}
	}
	return out
}

// FuzzTransformSeq checks TransformSeq's two properties on arbitrary
// concurrent sequences: every transformed op applies after the other
// site's sequence (bounds), and doc·A·B' == doc·B·A' (convergence). The
// seeds are the first cases of TestTransformSeqConvergenceProperty and
// TestTransformSeqBoundsProperty.
func FuzzTransformSeq(f *testing.F) {
	conv, bounds := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		n := conv.Intn(6)
		a := randOps(conv, n, conv.Intn(5), "s1")
		f.Add(encodeSeqCase(n, a, randOps(conv, n, conv.Intn(5), "s2")))
		n = bounds.Intn(5)
		a = randOps(bounds, n, bounds.Intn(6), "s1")
		f.Add(encodeSeqCase(n, a, randOps(bounds, n, bounds.Intn(6), "s2")))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		doc, a, b := decodeSeqCase(in)
		aP, bP := TransformSeq(a, "s1", b, "s2")
		d1 := applyAll(t, doc, append(append([]patch.Op{}, a...), bP...))
		d2 := applyAll(t, doc, append(append([]patch.Op{}, b...), aP...))
		if !d1.Equal(d2) {
			t.Fatalf("divergence\nbase=%q\na=%v\nb=%v\na'=%v\nb'=%v\nd1=%q\nd2=%q",
				doc.String(), a, b, aP, bP, d1.String(), d2.String())
		}
	})
}

func TestTransformSeqEmptySides(t *testing.T) {
	a := []patch.Op{{Kind: patch.OpInsert, Pos: 0, Line: "x"}}
	aP, bP := TransformSeq(a, "s1", nil, "s2")
	if len(aP) != 1 || aP[0] != a[0] {
		t.Fatalf("transform against empty changed ops: %v", aP)
	}
	if len(bP) != 0 {
		t.Fatalf("empty b grew: %v", bP)
	}
	aP2, bP2 := TransformSeq(nil, "s1", a, "s2")
	if len(aP2) != 0 || len(bP2) != 1 {
		t.Fatalf("empty a case: %v %v", aP2, bP2)
	}
}

func TestTransformPatch(t *testing.T) {
	p := patch.Patch{ID: "u1#1", Author: "u1", BaseTS: 3,
		Ops: []patch.Op{{Kind: patch.OpInsert, Pos: 2, Line: "mine"}}}
	c := patch.Patch{ID: "u2#5", Author: "u2", BaseTS: 3,
		Ops: []patch.Op{{Kind: patch.OpInsert, Pos: 0, Line: "theirs"}}}
	out := TransformPatch(p, c, 4)
	if out.BaseTS != 4 {
		t.Fatalf("BaseTS not advanced: %d", out.BaseTS)
	}
	if out.Ops[0].Pos != 3 {
		t.Fatalf("pos not shifted: %v", out.Ops[0])
	}
	if p.Ops[0].Pos != 2 {
		t.Fatalf("input mutated")
	}
	if out.ID != p.ID || out.Author != p.Author {
		t.Fatalf("identity changed: %+v", out)
	}
}

func TestCompact(t *testing.T) {
	p := patch.Patch{ID: "x", Ops: []patch.Op{
		{Kind: patch.OpNop},
		{Kind: patch.OpInsert, Pos: 0, Line: "keep"},
		{Kind: patch.OpNop},
	}}
	c := Compact(p)
	if len(c.Ops) != 1 || c.Ops[0].Line != "keep" {
		t.Fatalf("compact: %v", c.Ops)
	}
	if len(p.Ops) != 3 {
		t.Fatalf("compact mutated input")
	}
}

// TestThreeWayTotalOrderConvergence simulates the P2P-LTR discipline with
// three sites: each site has a tentative patch; patches commit one at a
// time in total order, and the remaining tentative patches are rebased on
// each commit. All replicas must converge.
func TestThreeWayTotalOrderConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		base := patch.FromLines([]string{"a", "b", "c"})
		sites := []string{"s1", "s2", "s3"}
		tentative := map[string][]patch.Op{}
		for _, s := range sites {
			tentative[s] = randOps(r, base.Len(), 1+r.Intn(3), s)
		}
		// Commit in site order (the total order assigned by the master).
		var committed [][2]interface{} // (site, ops) in commit order
		for i, s := range sites {
			ops := tentative[s]
			// Rebase this site's ops onto every previously committed patch.
			for _, c := range committed {
				cOps := c[1].([]patch.Op)
				cSite := c[0].(string)
				ops, _ = TransformSeq(ops, s, cOps, cSite)
			}
			committed = append(committed, [2]interface{}{s, ops})
			_ = i
		}
		// Every replica applies the committed sequence in order.
		var docs []*patch.Document
		for range sites {
			d := base.Clone()
			for _, c := range committed {
				for _, op := range c[1].([]patch.Op) {
					if err := d.Apply(op); err != nil {
						t.Fatalf("trial %d: committed op %v failed: %v", trial, op, err)
					}
				}
			}
			docs = append(docs, d)
		}
		for i := 1; i < len(docs); i++ {
			if !docs[0].Equal(docs[i]) {
				t.Fatalf("trial %d: replicas diverged", trial)
			}
		}
	}
}

func BenchmarkTransformOp(b *testing.B) {
	a := patch.Op{Kind: patch.OpInsert, Pos: 10, Line: "x"}
	c := patch.Op{Kind: patch.OpDelete, Pos: 5, Line: "y"}
	for i := 0; i < b.N; i++ {
		_ = TransformOp(a, "s1", c, "s2")
	}
}

func BenchmarkTransformSeq16x16(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randOps(r, 100, 16, "s1")
	y := randOps(r, 100, 16, "s2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = TransformSeq(x, "s1", y, "s2")
	}
}

// TestTransformOpTP1Quick is the testing/quick variant of the TP1 check:
// for arbitrary op pairs on a fixed-size document, transforming and
// applying in either order converges.
func TestTransformOpTP1Quick(t *testing.T) {
	base := patch.FromLines([]string{"l0", "l1", "l2", "l3"})
	mk := func(kind uint8, pos uint8, line string) patch.Op {
		if kind%2 == 0 {
			return patch.Op{Kind: patch.OpInsert, Pos: int(pos) % (base.Len() + 1), Line: line}
		}
		return patch.Op{Kind: patch.OpDelete, Pos: int(pos) % base.Len()}
	}
	f := func(k1, p1 uint8, l1 string, k2, p2 uint8, l2 string) bool {
		a := mk(k1, p1, l1)
		b := mk(k2, p2, l2)
		aP := TransformOp(a, "s1", b, "s2")
		bP := TransformOp(b, "s2", a, "s1")
		d1 := base.Clone()
		if err := d1.Apply(a); err != nil {
			return false
		}
		if err := d1.Apply(bP); err != nil {
			return false
		}
		d2 := base.Clone()
		if err := d2.Apply(b); err != nil {
			return false
		}
		if err := d2.Apply(aP); err != nil {
			return false
		}
		return d1.Equal(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
