// Package ot is the operational-transformation reconciliation engine of
// this P2P-LTR reproduction.
//
// The paper integrates patches with the So6 synchronizer ("using the
// transformational approach to build a safe and generic data
// synchronizer", Molli et al., GROUP 2003). So6's ecosystem is defunct, so
// this package reimplements the same idea: line-based inclusion
// transformation (IT) for insert/delete operations with a deterministic
// site tiebreak.
//
// P2P-LTR only ever needs to transform a *tentative* patch against
// *committed* patches delivered in total timestamp order — the committed
// sequence itself is applied verbatim at every peer. Under that discipline
// the pairwise TP1 property (verified exhaustively and by property tests)
// is sufficient for convergence; the TP2 puzzle cases of fully
// decentralized OT never arise.
package ot

import (
	"p2pltr/internal/patch"
)

// TransformOp transforms operation a (from site aSite) against a
// concurrent operation b (from site bSite) that has been applied first,
// returning a' such that doc.b.a' ≡ doc.a.b'.
func TransformOp(a patch.Op, aSite string, b patch.Op, bSite string) patch.Op {
	if a.Kind == patch.OpNop || b.Kind == patch.OpNop {
		return a
	}
	switch a.Kind {
	case patch.OpInsert:
		switch b.Kind {
		case patch.OpInsert:
			if b.Pos < a.Pos || (b.Pos == a.Pos && insBefore(b, bSite, a, aSite)) {
				a.Pos++
			}
		case patch.OpDelete:
			if b.Pos < a.Pos {
				a.Pos--
			}
		}
	case patch.OpDelete:
		switch b.Kind {
		case patch.OpInsert:
			if b.Pos <= a.Pos {
				a.Pos++
			}
		case patch.OpDelete:
			if b.Pos < a.Pos {
				a.Pos--
			} else if b.Pos == a.Pos {
				// Both sites deleted the same line: neutralize.
				return patch.Op{Kind: patch.OpNop}
			}
		}
	}
	return a
}

// insBefore decides, for two inserts at the same position, whether b's
// line should precede a's. The order is total and site-symmetric: compare
// sites first, then line content, so both peers sequence the two inserts
// identically. Equal (site, content) pairs are interchangeable.
func insBefore(b patch.Op, bSite string, a patch.Op, aSite string) bool {
	if bSite != aSite {
		return bSite < aSite
	}
	return b.Line < a.Line
}

// TransformSeq transforms two concurrent operation sequences against each
// other (Ressel's generalized IT): it returns a', b' such that applying
// b then a' yields the same document as applying a then b'.
func TransformSeq(a []patch.Op, aSite string, b []patch.Op, bSite string) (aPrime, bPrime []patch.Op) {
	bCur := append([]patch.Op(nil), b...)
	aPrime = make([]patch.Op, 0, len(a))
	for _, opA := range a {
		cur := opA
		for j := range bCur {
			nextA := TransformOp(cur, aSite, bCur[j], bSite)
			bCur[j] = TransformOp(bCur[j], bSite, cur, aSite)
			cur = nextA
		}
		aPrime = append(aPrime, cur)
	}
	return aPrime, bCur
}

// Compact removes neutralized operations from a patch. The patch keeps
// its identity; an all-nop patch stays publishable so the author's
// sequence numbering remains dense.
func Compact(p patch.Patch) patch.Patch {
	out := p.Clone()
	kept := out.Ops[:0]
	for _, op := range out.Ops {
		if op.Kind != patch.OpNop {
			kept = append(kept, op)
		}
	}
	out.Ops = kept
	return out
}
