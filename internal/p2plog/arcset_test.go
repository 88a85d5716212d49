package p2plog

import (
	"testing"

	"p2pltr/internal/ids"
)

// TestArcSetCovers: a position is covered by the arc ending at or after
// it (wrapping past zero); the set's answers do not depend on the order
// arcs were added in; and a position only an overlapping stale arc
// reaches reads as uncovered, never the other way round.
func TestArcSetCovers(t *testing.T) {
	ring := []ids.Arc{{From: 900, To: 100}, {From: 100, To: 400}, {From: 400, To: 900}}
	var fwd, rev arcSet
	fwd = fwd.with(ring)
	for i := len(ring) - 1; i >= 0; i-- {
		rev = rev.with(ring[i : i+1])
	}
	rev = rev.with(ring) // duplicates collapse
	if len(rev) != len(ring) {
		t.Fatalf("set holds %d arcs, want %d", len(rev), len(ring))
	}
	for _, p := range []ids.ID{0, 50, 100, 101, 400, 401, 899, 900, 901, ^ids.ID(0)} {
		if !fwd.covers(p) || !rev.covers(p) {
			t.Errorf("position %d: covered %v/%v by a full ring", p, fwd.covers(p), rev.covers(p))
		}
	}

	var part arcSet
	part = part.with([]ids.Arc{{From: 100, To: 400}})
	for p, want := range map[ids.ID]bool{100: false, 101: true, 400: true, 401: false, 50: false} {
		if got := part.covers(p); got != want {
			t.Errorf("one arc (100, 400]: covers(%d) = %v, want %v", p, got, want)
		}
	}
	// A stale peer's arc (50, 400] overlaps (300, 350]: 200 lies only on
	// the stale one and costs a delete; 320 lies on both.
	part = part.with([]ids.Arc{{From: 50, To: 400}, {From: 300, To: 350}})
	if part.covers(200) {
		t.Error("a position reached only through an overlapping arc read as covered")
	}
	if !part.covers(320) {
		t.Error("position 320 on its owner's arc read as uncovered")
	}
	var empty arcSet
	if empty.covers(1) || empty.with(nil).covers(1) {
		t.Error("the empty set covers a position")
	}
}
