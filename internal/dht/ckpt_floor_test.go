package dht

import (
	"context"
	"slices"
	"testing"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/store"
	"p2pltr/internal/vclock"
)

// names lists the slot names st holds, in ring order.
func names(st *store.Store) []string {
	var out []string
	for _, e := range st.SnapshotMeta() {
		out = append(out, e.Key)
	}
	return out
}

func call(t *testing.T, s *Service, req msg.Message) msg.Message {
	t.Helper()
	resp, handled, err := s.HandleRPC(context.Background(), "caller", req)
	if err != nil || !handled {
		t.Fatalf("%T: handled=%v err=%v", req, handled, err)
	}
	return resp
}

// TestReclaimed pins which slots a floor reclaims: log records at or
// below it, checkpoints strictly below it, never a pointer.
func TestReclaimed(t *testing.T) {
	for _, tc := range []struct {
		slot ids.Slot
		want bool
	}{
		{ids.LogSlot("doc", 7), true},
		{ids.LogSlot("doc", 8), true},
		{ids.LogSlot("doc", 9), false},
		{ids.CheckpointSlot("doc", 4), true},
		{ids.CheckpointSlot("doc", 8), false},
		{ids.CheckpointSlot("doc", 12), false},
		{ids.PointerSlot("doc"), false},
	} {
		if got := reclaimed(tc.slot, 8); got != tc.want {
			t.Errorf("reclaimed(%v, 8) = %v, want %v", tc.slot, got, tc.want)
		}
	}
}

// TestDeleteSweepsCheckpointsBelowFloor: a floor-carrying delete sweeps
// the responder's checkpoint primaries older than the floor along with
// the log prefix. The checkpoint at the floor, the newer one, the
// pointer and every slot of another key stay, and Swept counts the log
// slots only.
func TestDeleteSweepsCheckpointsBelowFloor(t *testing.T) {
	s := NewService(arcRing{self: node(100), pred: node(50)}, vclock.System, nil, nil)
	const key = "doc"
	put := func(id ids.ID, slot ids.Slot) { s.Store().Put(id, slot.Name(0), []byte("v")) }
	for ts := uint64(1); ts <= 5; ts++ {
		put(ids.ID(60+ts), ids.LogSlot(key, ts))
	}
	put(70, ids.CheckpointSlot(key, 2))
	put(71, ids.CheckpointSlot(key, 4))
	put(72, ids.CheckpointSlot(key, 6))
	put(73, ids.PointerSlot(key))
	put(74, ids.CheckpointSlot("other", 2))
	put(75, ids.LogSlot("other", 1))

	resp := deleteResp(t, s, &msg.DHTDeleteReq{ID: 90, Floor: msg.TruncFloor{Key: key, TS: 4}})
	if resp.Deleted || resp.Swept != 4 {
		t.Fatalf("deleted=%v swept=%d, want false and the 4 log slots only", resp.Deleted, resp.Swept)
	}
	want := []string{
		ids.LogSlot(key, 5).Name(0),
		ids.CheckpointSlot(key, 4).Name(0),
		ids.CheckpointSlot(key, 6).Name(0),
		ids.PointerSlot(key).Name(0),
		ids.CheckpointSlot("other", 2).Name(0),
		ids.LogSlot("other", 1).Name(0),
	}
	if got := names(s.Store()); !slices.Equal(got, want) {
		t.Fatalf("primaries left %v, want %v", got, want)
	}
	if got := s.Counters().Snapshot()["floor-swept-slots"]; got != 5 {
		t.Fatalf("floor-swept-slots = %d, want 5 (4 log slots and 1 checkpoint)", got)
	}
}

// TestOutOfBandFloorSweepsReplicaCheckpoints: a floor learned out of
// band sweeps the replica store's older checkpoints at once. A primary
// checkpoint below it is reclaimed lazily by a read, and the next
// floor-carrying delete does not count it.
func TestOutOfBandFloorSweepsReplicaCheckpoints(t *testing.T) {
	s := NewService(arcRing{self: node(100), pred: node(50)}, vclock.System, nil, nil)
	const key = "doc"
	floor := msg.TruncFloor{Key: key, TS: 4}
	for i, slot := range []ids.Slot{ids.CheckpointSlot(key, 2), ids.CheckpointSlot(key, 4), ids.LogSlot(key, 3), ids.LogSlot(key, 5)} {
		s.ReplicaStore().Put(ids.ID(200+i), slot.Name(1), []byte("v"))
	}
	s.Store().Put(60, ids.CheckpointSlot(key, 2).Name(0), []byte("v"))

	call(t, s, &msg.DHTReplicaDeleteReq{Floor: floor})
	want := []string{ids.CheckpointSlot(key, 4).Name(1), ids.LogSlot(key, 5).Name(1)}
	if got := names(s.ReplicaStore()); !slices.Equal(got, want) {
		t.Fatalf("replicas left %v, want %v", got, want)
	}
	if s.Store().Len() != 1 {
		t.Fatalf("an out-of-band floor swept %d primaries", 1-s.Store().Len())
	}
	if call(t, s, &msg.DHTGetReq{ID: 60}).(*msg.DHTGetResp).Found {
		t.Fatal("a checkpoint below the floor was served")
	}
	if s.Store().Len() != 0 {
		t.Fatal("the read left the checkpoint below the floor in place")
	}
	if resp := deleteResp(t, s, &msg.DHTDeleteReq{ID: 90, Floor: floor}); resp.Swept != 0 {
		t.Fatalf("delete swept %d, want 0: a read-reclaimed checkpoint is no log slot", resp.Swept)
	}
}

// TestPutBelowFloorCheckpointAcked: once a floor is known, a checkpoint
// older than it is acknowledged without being stored, by a put, a
// replica push and a handover alike; the checkpoint at the floor and the
// pointer are stored.
func TestPutBelowFloorCheckpointAcked(t *testing.T) {
	s := NewService(arcRing{self: node(100), pred: node(50)}, vclock.System, nil, nil)
	const key = "doc"
	call(t, s, &msg.DHTReplicaDeleteReq{Floor: msg.TruncFloor{Key: key, TS: 4}})

	old, atFloor, ptr := ids.CheckpointSlot(key, 2), ids.CheckpointSlot(key, 4), ids.PointerSlot(key)
	for i, slot := range []ids.Slot{old, atFloor, ptr} {
		resp := call(t, s, &msg.DHTPutReq{ID: ids.ID(60 + i), Key: slot.Name(0), Value: []byte("v"), IfAbsent: slot.Kind != ids.KindPointer})
		if !resp.(*msg.DHTPutResp).Stored {
			t.Fatalf("put of %s not acknowledged", slot.Name(0))
		}
	}
	want := []string{atFloor.Name(0), ptr.Name(0)}
	if got := names(s.Store()); !slices.Equal(got, want) {
		t.Fatalf("primaries %v, want %v", got, want)
	}

	call(t, s, &msg.DHTReplicaPutReq{Items: []msg.StateItem{
		{Service: ServiceName, Key: old.Name(1), ID: 80, Value: []byte("v")},
		{Service: ServiceName, Key: atFloor.Name(1), ID: 81, Value: []byte("v")},
	}})
	if got, want := names(s.ReplicaStore()), []string{atFloor.Name(1)}; !slices.Equal(got, want) {
		t.Fatalf("replicas %v, want %v", got, want)
	}

	s.Import([]msg.StateItem{{Service: ServiceName, Key: old.Name(2), ID: 90, Value: []byte("v")}})
	if _, ok := s.Store().Get(90); ok {
		t.Fatal("a handover re-seeded a checkpoint below the floor")
	}
}
