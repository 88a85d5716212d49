// Package patch models the documents and update patches of P2P-LTR.
//
// Following the paper's XWiki setting, a document is a sequence of text
// lines edited locally by a user peer. Each save operation captures the
// tentative update actions as a patch — a sequence of line insert/delete
// operations — which the P2P-LTR protocol then timestamps, logs and
// replays in total order at every master of the document.
package patch

import (
	"fmt"
	"strings"

	"p2pltr/internal/msg"
)

// OpKind enumerates the update actions.
type OpKind uint8

const (
	// OpInsert inserts Line at index Pos (existing lines at >= Pos shift
	// down).
	OpInsert OpKind = iota
	// OpDelete removes the line at index Pos. Line records the expected
	// content for debugging and conflict diagnosis.
	OpDelete
	// OpNop is an operation neutralized by transformation (e.g. both
	// sites deleted the same line).
	OpNop
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "ins"
	case OpDelete:
		return "del"
	case OpNop:
		return "nop"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is a single update action on a document.
type Op struct {
	Kind OpKind
	Pos  int
	Line string
}

func (o *Op) wire(c *msg.Coder) {
	c.Uint8((*uint8)(&o.Kind))
	c.Int(&o.Pos)
	c.String(&o.Line)
}

func (o Op) String() string {
	if o.Kind == OpNop {
		return "nop"
	}
	return fmt.Sprintf("%s@%d(%q)", o.Kind, o.Pos, o.Line)
}

// Patch is the unit of update exchange: the paper's "sequence of updates"
// wrapped at each document save.
type Patch struct {
	// ID uniquely identifies the patch (author site and session +
	// session-local sequence number). The Master-key uses it to recognize
	// an idempotent republish after a crash.
	ID string
	// Author is the site identifier of the producing user peer; it also
	// breaks ties in operation transformation.
	Author string
	// BaseTS is the timestamp of the committed state the patch was
	// generated against (the author's local ts at save time).
	BaseTS uint64
	// Ops are the update actions, to be applied in order.
	Ops []Op
}

// format is the leading byte of an encoded patch (see msg.Marshal).
const format = 0xA1

func (p *Patch) wire(c *msg.Coder) {
	c.String(&p.ID)
	c.String(&p.Author)
	c.Uint64(&p.BaseTS)
	msg.Slice(c, &p.Ops, 3, (*Op).wire) // 3 is the fewest bytes an Op encodes to
}

// NewPatchID formats the canonical patch identifier.
func NewPatchID(author string, seq uint64) string {
	return fmt.Sprintf("%s#%d", author, seq)
}

// Clone returns a deep copy.
func (p Patch) Clone() Patch {
	out := p
	out.Ops = append([]Op(nil), p.Ops...)
	return out
}

// Encode serializes the patch for the wire and the P2P-Log.
func (p Patch) Encode() ([]byte, error) {
	b, err := msg.Marshal(format, p.wire)
	if err != nil {
		return nil, fmt.Errorf("patch: encode %s: %w", p.ID, err)
	}
	return b, nil
}

// Decode deserializes a patch produced by Encode.
func Decode(b []byte) (Patch, error) {
	var p Patch
	if err := msg.Unmarshal(b, format, p.wire); err != nil {
		return Patch{}, fmt.Errorf("patch: decode: %w", err)
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Document.

// Document is a line-based text document. The zero value is an empty
// document ready to use.
type Document struct {
	lines []string
}

// NewDocument builds a document from full text (split on newlines; an
// empty string yields an empty document).
func NewDocument(text string) *Document {
	d := &Document{}
	if text != "" {
		d.lines = strings.Split(text, "\n")
	}
	return d
}

// FromLines builds a document from a copy of the given lines.
func FromLines(lines []string) *Document {
	return &Document{lines: append([]string(nil), lines...)}
}

// Len returns the number of lines.
func (d *Document) Len() int { return len(d.lines) }

// Lines returns a copy of the document's lines.
func (d *Document) Lines() []string { return append([]string(nil), d.lines...) }

// Line returns line i.
func (d *Document) Line(i int) string { return d.lines[i] }

// String joins the lines with newlines.
func (d *Document) String() string { return strings.Join(d.lines, "\n") }

// Clone returns a deep copy.
func (d *Document) Clone() *Document { return FromLines(d.lines) }

// Equal reports whether two documents have identical content.
func (d *Document) Equal(o *Document) bool {
	if len(d.lines) != len(o.lines) {
		return false
	}
	for i := range d.lines {
		if d.lines[i] != o.lines[i] {
			return false
		}
	}
	return true
}

// Apply executes op, returning an error when the position is out of
// bounds. OpNop always succeeds.
func (d *Document) Apply(op Op) error {
	switch op.Kind {
	case OpNop:
		return nil
	case OpInsert:
		if op.Pos < 0 || op.Pos > len(d.lines) {
			return fmt.Errorf("patch: insert at %d out of bounds (len %d)", op.Pos, len(d.lines))
		}
		d.lines = append(d.lines, "")
		copy(d.lines[op.Pos+1:], d.lines[op.Pos:])
		d.lines[op.Pos] = op.Line
		return nil
	case OpDelete:
		if op.Pos < 0 || op.Pos >= len(d.lines) {
			return fmt.Errorf("patch: delete at %d out of bounds (len %d)", op.Pos, len(d.lines))
		}
		d.lines = append(d.lines[:op.Pos], d.lines[op.Pos+1:]...)
		return nil
	default:
		return fmt.Errorf("patch: unknown op kind %d", op.Kind)
	}
}

// ApplyPatch executes every op of p in order.
func (d *Document) ApplyPatch(p Patch) error {
	for i, op := range p.Ops {
		if err := d.Apply(op); err != nil {
			return fmt.Errorf("applying op %d of patch %s: %w", i, p.ID, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Diff.

// Diff computes a patch transforming document a into document b, as a
// sequence of line deletes and inserts derived from a longest common
// subsequence. It is what the user peer's save operation uses to capture
// "tentative update actions performed on primary copies".
func Diff(a, b *Document) []Op {
	al, bl := a.lines, b.lines
	// LCS table.
	n, m := len(al), len(bl)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if al[i] == bl[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	// Walk the table emitting ops against the *evolving* document: pos
	// tracks the current index in the partially transformed document.
	var ops []Op
	i, j, pos := 0, 0, 0
	for i < n && j < m {
		switch {
		case al[i] == bl[j]:
			i, j, pos = i+1, j+1, pos+1
		case lcs[i+1][j] >= lcs[i][j+1]:
			ops = append(ops, Op{Kind: OpDelete, Pos: pos, Line: al[i]})
			i++
		default:
			ops = append(ops, Op{Kind: OpInsert, Pos: pos, Line: bl[j]})
			j++
			pos++
		}
	}
	for ; i < n; i++ {
		ops = append(ops, Op{Kind: OpDelete, Pos: pos, Line: al[i]})
	}
	for ; j < m; j++ {
		ops = append(ops, Op{Kind: OpInsert, Pos: pos, Line: bl[j]})
		pos++
	}
	return ops
}
