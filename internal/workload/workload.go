// Package workload generates the editing workloads and key popularity
// distributions used by the declarative plan runner (internal/simtest).
//
// The paper's prototype lets the operator "specify the number of peers or
// network latencies, or provoke failures"; this package is the scripted
// equivalent for the editing side: deterministic (seeded) generators for
// concurrent editors, think-time streams and Zipf-distributed document
// popularity.
//
// Every duration this package produces feeds a scheduler — virtual or
// real — through the vclock seam, so nothing here may read the wall
// clock (scripts/lint-wallclock.sh enforces it) and every produced
// duration must stay finite and overflow-safe when added to a virtual
// instant: generators clamp to MaxGap instead of returning sentinel
// values near the int64 edge.
package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// EditKind enumerates generated edit actions.
type EditKind uint8

const (
	// EditInsert inserts a line at Pos.
	EditInsert EditKind = iota
	// EditDelete deletes the line at Pos.
	EditDelete
)

// Edit is one generated edit action relative to a document length.
type Edit struct {
	Kind EditKind
	Pos  int
	Line string
}

// Editor generates a stream of edits for one collaborating site,
// tracking the evolving document length so positions stay valid.
type Editor struct {
	Site string

	rng    *rand.Rand
	length int
	seq    int
	// DeleteFraction is the probability an edit deletes instead of
	// inserting (when the document is non-empty). Default 0.3.
	DeleteFraction float64
}

// NewEditor creates a deterministic editor for site with the document's
// current length.
func NewEditor(site string, startLen int, seed int64) *Editor {
	return &Editor{
		Site:           site,
		rng:            rand.New(rand.NewSource(seed)),
		length:         startLen,
		DeleteFraction: 0.3,
	}
}

// SetLength re-synchronizes the editor's view of the document length
// (after pulls merge remote edits).
func (e *Editor) SetLength(n int) {
	if n >= 0 {
		e.length = n
	}
}

// Next produces the next edit.
func (e *Editor) Next() Edit {
	e.seq++
	if e.length > 0 && e.rng.Float64() < e.DeleteFraction {
		pos := e.rng.Intn(e.length)
		e.length--
		return Edit{Kind: EditDelete, Pos: pos}
	}
	pos := e.rng.Intn(e.length + 1)
	e.length++
	return Edit{Kind: EditInsert, Pos: pos, Line: fmt.Sprintf("%s/%d", e.Site, e.seq)}
}

// ---------------------------------------------------------------------------
// Key popularity.

// ZipfKeys draws document keys with Zipf popularity: key 0 is the hottest
// (the "concurrent updates on the same document" regime the paper calls
// the typical collaborative case).
type ZipfKeys struct {
	z    *rand.Zipf
	keys []string
}

// NewZipfKeys creates a generator over nKeys documents with exponent s
// (s=1.07 is a common web-like skew; larger = more skewed).
func NewZipfKeys(nKeys int, s float64, seed int64) *ZipfKeys {
	if nKeys < 1 {
		nKeys = 1
	}
	if s <= 1 {
		s = 1.01
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("doc-%03d", i)
	}
	return &ZipfKeys{
		z:    rand.NewZipf(rng, s, 1, uint64(nKeys-1)),
		keys: keys,
	}
}

// Next returns the next document key.
func (z *ZipfKeys) Next() string { return z.keys[z.z.Uint64()] }

// Keys returns all keys (index 0 = hottest).
func (z *ZipfKeys) Keys() []string { return append([]string(nil), z.keys...) }

// MaxGap is the largest duration the generators hand a scheduler: long
// enough to mean "effectively never" at any experiment horizon, small
// enough that adding it to any virtual instant cannot overflow (the old
// math.MaxInt64 sentinel wrapped negative one addition later).
const MaxGap = 10 * 365 * 24 * time.Hour

// ---------------------------------------------------------------------------
// Think time.

// Think is a deterministic stream of editor think-time gaps, uniform in
// [Min, Max]. It exists so drivers stop inlining their own
// rng-to-duration arithmetic: the gaps feed Clock.Sleep directly, and
// constructing them here keeps the conversion in one lint-covered,
// overflow-safe place.
type Think struct {
	rng      *rand.Rand
	min, max time.Duration
}

// NewThink creates a think-time stream (min/max swapped if reversed;
// both clamped to [0, MaxGap]).
func NewThink(min, max time.Duration, seed int64) *Think {
	if min > max {
		min, max = max, min
	}
	if min < 0 {
		min = 0
	}
	if max > MaxGap {
		max = MaxGap
	}
	return &Think{rng: rand.New(rand.NewSource(seed)), min: min, max: max}
}

// Next draws the next gap.
func (t *Think) Next() time.Duration {
	if t.max <= t.min {
		return t.min
	}
	return t.min + time.Duration(t.rng.Int63n(int64(t.max-t.min)+1))
}

// ---------------------------------------------------------------------------
// Plan-driven session construction.

// SessionSpec describes one editing session declaratively — the typed
// parameters a plan file carries — and builds its generators.
type SessionSpec struct {
	// Site identifies the editing site (patch attribution).
	Site string
	// StartLen is the document length the editor assumes at start.
	StartLen int
	// DeleteFraction is the probability an edit deletes instead of
	// inserting (Editor semantics; 0 = insert-only).
	DeleteFraction float64
	// ThinkMin/ThinkMax bound the uniform think-time gap between edits.
	ThinkMin, ThinkMax time.Duration
}

// Build derives the session's deterministic generators from one seed:
// the edit stream and the think-time stream (decorrelated so changing
// the edit mix does not shift the schedule).
func (s SessionSpec) Build(seed int64) (*Editor, *Think) {
	ed := NewEditor(s.Site, s.StartLen, seed)
	ed.DeleteFraction = s.DeleteFraction
	return ed, NewThink(s.ThinkMin, s.ThinkMax, seed^0x5DEECE66D)
}
