// Package store provides the per-peer local key-value storage that the
// DHT, KTS and P2P-Log services keep their state in.
//
// The store indexes entries both by a string key (for service semantics)
// and by a ring position (for Chord key-range transfer on join/leave).
// Slots can be marked write-once, which the P2P-Log uses to make each
// (document, timestamp) slot immutable — the property the Master-key
// crash-recovery path relies on.
package store

import (
	"bytes"
	"sort"
	"sync"

	"p2pltr/internal/ids"
)

// Entry is one stored item.
type Entry struct {
	Key   string
	ID    ids.ID
	Value []byte
}

// Store is a concurrency-safe local KV store partitioned on the ring.
// The zero value is not usable; call New.
type Store struct {
	mu sync.RWMutex
	m  map[ids.ID]Entry
}

// New returns an empty store.
func New() *Store {
	return &Store{m: make(map[ids.ID]Entry)}
}

// Put stores value at ring position id, overwriting any previous value.
func (s *Store) Put(id ids.ID, key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[id] = Entry{Key: key, ID: id, Value: cloneBytes(value)}
}

// PutIfAbsent stores value only if the slot is empty or already holds the
// same bytes. It returns stored=true in both of those cases (the operation
// is idempotent); when the slot holds different content it returns
// stored=false along with the occupant.
func (s *Store) PutIfAbsent(id ids.ID, key string, value []byte) (stored bool, existing []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[id]; ok {
		if bytes.Equal(e.Value, value) {
			return true, nil
		}
		return false, cloneBytes(e.Value)
	}
	s.m[id] = Entry{Key: key, ID: id, Value: cloneBytes(value)}
	return true, nil
}

// Get returns the value at ring position id.
func (s *Store) Get(id ids.ID) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[id]
	if !ok {
		return nil, false
	}
	return cloneBytes(e.Value), true
}

// GetEntry returns the full entry at ring position id.
func (s *Store) GetEntry(id ids.ID) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[id]
	if !ok {
		return Entry{}, false
	}
	e.Value = cloneBytes(e.Value)
	return e, true
}

// Delete removes the entry at id, reporting whether it existed.
func (s *Store) Delete(id ids.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		return false
	}
	delete(s.m, id)
	return true
}

// DeleteIf removes every entry match accepts and returns how many it
// removed, in one pass under the store lock: no snapshot, no copy, no
// sort. Entries are visited in no fixed order, so match must judge each
// on its own. It sees each entry's Value without a copy and must neither
// keep nor modify it, nor call back into the store.
func (s *Store) DeleteIf(match func(Entry) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	// match judges each entry on its own and the map is the only state
	// changed here, so which entry goes first cannot be observed.
	// lint:unordered-ok
	for id, e := range s.m {
		if match(e) {
			delete(s.m, id)
			n++
		}
	}
	return n
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// ExtractOutside removes and returns every entry whose ring position is
// NOT in (newPred, self]. It implements the state handover of a Chord
// join: the remaining entries are exactly those this node still owns.
func (s *Store) ExtractOutside(newPred, self ids.ID) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	// BetweenRightIncl is a pure ring-interval test and out is sorted
	// below before the handover acts on it. lint:unordered-ok
	for id, e := range s.m {
		if !ids.BetweenRightIncl(id, newPred, self) {
			out = append(out, e)
			delete(s.m, id)
		}
	}
	sortEntries(out)
	return out
}

// SnapshotMeta returns every entry's Key and ID, in ring order, with
// the Value left nil: walks that only match on names (the DHT promotion
// and re-home walks) would otherwise deep-copy the whole store's bytes
// per pass.
func (s *Store) SnapshotMeta() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.m))
	for _, e := range s.m {
		out = append(out, Entry{Key: e.Key, ID: e.ID})
	}
	sortEntries(out)
	return out
}

// SnapshotAll returns a copy of every entry (voluntary-leave export).
func (s *Store) SnapshotAll() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.m))
	// cloneBytes is a pure copy and out is sorted below before any
	// consumer sees it. lint:unordered-ok
	for _, e := range s.m {
		e.Value = cloneBytes(e.Value)
		out = append(out, e)
	}
	sortEntries(out)
	return out
}

// sortEntries orders entries by ring position. Exports and snapshots
// feed replica pushes, handovers and the DHT maintenance promotion
// loop; map iteration order there would make peers act on the same
// state in a different order every run, which deterministic virtual-time
// simulation cannot tolerate.
func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
}

// Clear removes all entries.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = make(map[ids.ID]Entry)
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
