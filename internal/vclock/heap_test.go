package vclock

import (
	"math/rand"
	"testing"
)

// TestTimerHeapMatchesReference drives the timer heap and a reference —
// an unordered slice searched for its (deadline, seq) minimum — through
// the same seeded 10⁵ operations: push, expedite to now (up), mark
// removed, and pop with popLocked's lazy discard of removed entries.
// The two pop orders must be identical, and every entry must know its
// slot after every operation. Deadlines collide often, so the seq
// tie-break is exercised; phases alternate between growing and draining
// so the heap is both shallow and a dozen levels deep.
func TestTimerHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := &Virtual{}
	var (
		ref []*entry // every entry in the heap, removed ones included
		now int64
		seq uint64
	)
	// refPop is popLocked on the reference: the earliest entry goes,
	// removed ones are discarded until a live one is found.
	refPop := func() *entry {
		for len(ref) > 0 {
			m := 0
			for i, e := range ref {
				if e.before(ref[m]) {
					m = i
				}
			}
			e := ref[m]
			ref[m] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			if !e.removed {
				return e
			}
		}
		return nil
	}
	for op := 0; op < 100000; op++ {
		pushShare := 30
		if op/10000%2 == 0 {
			pushShare = 50
		}
		switch k := rng.Intn(100); {
		case k < pushShare || len(ref) == 0:
			seq++
			e := &entry{deadline: now + rng.Int63n(50), seq: seq}
			v.timers.push(e)
			ref = append(ref, e)
		case k < pushShare+15:
			if e := ref[rng.Intn(len(ref))]; e.deadline > now {
				e.deadline = now
				v.timers.up(e.index)
			}
		case k < pushShare+20:
			ref[rng.Intn(len(ref))].removed = true
		default:
			got, want := v.popLocked(), refPop()
			if got != want {
				t.Fatalf("op %d: heap popped %+v, reference %+v", op, got, want)
			}
			if got != nil {
				if got.index != -1 {
					t.Fatalf("op %d: popped entry still claims slot %d", op, got.index)
				}
				now = max(now, got.deadline)
			}
		}
		if len(v.timers) != len(ref) {
			t.Fatalf("op %d: heap holds %d entries, reference %d", op, len(v.timers), len(ref))
		}
		for i, e := range v.timers {
			if e.index != i {
				t.Fatalf("op %d: entry in slot %d claims slot %d", op, i, e.index)
			}
		}
	}
}
