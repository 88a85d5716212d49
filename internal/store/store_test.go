package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"p2pltr/internal/ids"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	s.Put(1, "a", []byte("x"))
	v, ok := s.Get(1)
	if !ok || string(v) != "x" {
		t.Fatalf("get after put: %q %v", v, ok)
	}
	s.Put(1, "a", []byte("y"))
	v, _ = s.Get(1)
	if string(v) != "y" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if !s.Delete(1) {
		t.Fatalf("delete existing returned false")
	}
	if s.Delete(1) {
		t.Fatalf("delete missing returned true")
	}
	if _, ok := s.Get(1); ok {
		t.Fatalf("get after delete succeeded")
	}
}

func TestPutIfAbsentWriteOnce(t *testing.T) {
	s := New()
	stored, _ := s.PutIfAbsent(9, "k", []byte("first"))
	if !stored {
		t.Fatalf("initial put rejected")
	}
	// Idempotent republish of the same content succeeds.
	stored, _ = s.PutIfAbsent(9, "k", []byte("first"))
	if !stored {
		t.Fatalf("idempotent republish rejected")
	}
	// Conflicting content is refused and the occupant returned.
	stored, existing := s.PutIfAbsent(9, "k", []byte("second"))
	if stored {
		t.Fatalf("conflicting put accepted")
	}
	if string(existing) != "first" {
		t.Fatalf("occupant = %q", existing)
	}
	if v, _ := s.Get(9); string(v) != "first" {
		t.Fatalf("slot mutated to %q", v)
	}
}

func TestPutIfAbsentEmptyValue(t *testing.T) {
	// A write-once slot holding empty content is still occupied: only
	// byte-identical republish is accepted.
	s := New()
	if stored, _ := s.PutIfAbsent(5, "k", nil); !stored {
		t.Fatalf("initial empty put rejected")
	}
	if stored, _ := s.PutIfAbsent(5, "k", nil); !stored {
		t.Fatalf("idempotent empty republish rejected")
	}
	if stored, _ := s.PutIfAbsent(5, "k", []byte("x")); stored {
		t.Fatalf("occupied empty slot overwritten")
	}
}

func TestWriteOnceAfterDeleteAllowsRewrite(t *testing.T) {
	// Deleting a slot forfeits its write-once guarantee: a subsequent
	// PutIfAbsent with different content succeeds. This is exactly why
	// log truncation must be gated on a fully-replicated checkpoint — the
	// reclaimed timestamps are no longer protected by the store.
	s := New()
	if stored, _ := s.PutIfAbsent(7, "k", []byte("first")); !stored {
		t.Fatalf("initial put rejected")
	}
	if !s.Delete(7) {
		t.Fatalf("delete failed")
	}
	stored, existing := s.PutIfAbsent(7, "k", []byte("second"))
	if !stored || existing != nil {
		t.Fatalf("rewrite after delete: stored=%v existing=%q", stored, existing)
	}
	if v, _ := s.Get(7); string(v) != "second" {
		t.Fatalf("slot holds %q", v)
	}
}

func TestValueIsolation(t *testing.T) {
	s := New()
	buf := []byte("abc")
	s.Put(3, "k", buf)
	buf[0] = 'Z'
	v, _ := s.Get(3)
	if string(v) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", v)
	}
	v[0] = 'Q'
	v2, _ := s.Get(3)
	if string(v2) != "abc" {
		t.Fatalf("get aliased internal buffer: %q", v2)
	}
}

func TestExtractOutside(t *testing.T) {
	s := New()
	// Node self=100 with new predecessor 50: entries in (50,100] stay.
	s.Put(10, "below", []byte("a"))
	s.Put(50, "edge-lo", []byte("b"))  // 50 is NOT in (50,100] -> leaves
	s.Put(75, "mid", []byte("c"))      // stays
	s.Put(100, "edge-hi", []byte("d")) // stays (right-inclusive)
	s.Put(200, "above", []byte("e"))   // leaves

	out := s.ExtractOutside(50, 100)
	if len(out) != 3 {
		t.Fatalf("extracted %d entries, want 3: %+v", len(out), out)
	}
	for _, e := range out {
		if e.ID == 75 || e.ID == 100 {
			t.Fatalf("extracted owned entry %v", e.ID)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("store kept %d entries, want 2", s.Len())
	}
}

func TestSnapshotAllAndClear(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Put(ids.ID(i), fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	snap := s.SnapshotAll()
	if len(snap) != 10 {
		t.Fatalf("snapshot %d entries", len(snap))
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatalf("clear left %d entries", s.Len())
	}
	// Snapshot survives the clear (it is a copy).
	if len(snap) != 10 || snap[0].Value == nil {
		t.Fatalf("snapshot aliased store state")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids.ID(g*1000 + i)
				s.Put(id, "k", []byte{byte(i)})
				if _, ok := s.Get(id); !ok {
					t.Errorf("lost own write at %v", id)
					return
				}
				s.PutIfAbsent(id, "k", []byte{byte(i)})
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("len = %d", s.Len())
	}
}

// Property: ExtractOutside + remaining always partitions the entries, and
// every remaining entry is owned (in (newPred, self]).
func TestExtractPartitionProperty(t *testing.T) {
	f := func(entryIDs []uint64, pred, self uint64) bool {
		s := New()
		for _, e := range entryIDs {
			s.Put(ids.ID(e), "k", []byte("v"))
		}
		before := s.Len()
		out := s.ExtractOutside(ids.ID(pred), ids.ID(self))
		if len(out)+s.Len() != before {
			return false
		}
		for _, e := range s.SnapshotAll() {
			if !ids.BetweenRightIncl(e.ID, ids.ID(pred), ids.ID(self)) {
				return false
			}
		}
		for _, e := range out {
			if ids.BetweenRightIncl(e.ID, ids.ID(pred), ids.ID(self)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGetEntry(t *testing.T) {
	s := New()
	s.Put(5, "name", []byte("v"))
	e, ok := s.GetEntry(5)
	if !ok || e.Key != "name" || !bytes.Equal(e.Value, []byte("v")) || e.ID != 5 {
		t.Fatalf("entry %+v ok=%v", e, ok)
	}
	if _, ok := s.GetEntry(6); ok {
		t.Fatalf("missing entry found")
	}
}

func TestDeleteIf(t *testing.T) {
	s := New()
	for i := 1; i <= 6; i++ {
		s.Put(ids.ID(i), fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	n := s.DeleteIf(func(e Entry) bool { return e.Value[0]%2 == 0 })
	if n != 3 || s.Len() != 3 {
		t.Fatalf("removed %d, %d left; want 3 and 3", n, s.Len())
	}
	for _, e := range s.SnapshotAll() {
		if e.Value[0]%2 == 0 {
			t.Fatalf("entry %s survived", e.Key)
		}
	}
	if n := s.DeleteIf(func(Entry) bool { return false }); n != 0 || s.Len() != 3 {
		t.Fatalf("a predicate matching nothing removed %d", n)
	}
}
