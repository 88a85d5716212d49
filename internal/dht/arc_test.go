package dht

import (
	"context"
	"testing"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/vclock"
)

// arcRing is a ring view with a scripted predecessor and no successor:
// the service owns (pred, self] and pushes no copies.
type arcRing struct {
	soloRing
	self, pred msg.NodeRef
}

func (r arcRing) Ref() msg.NodeRef         { return r.self }
func (r arcRing) Predecessor() msg.NodeRef { return r.pred }
func (r arcRing) Owns(id ids.ID) bool {
	return r.pred.IsZero() || r.pred.ID == r.self.ID || ids.BetweenRightIncl(id, r.pred.ID, r.self.ID)
}

func node(id ids.ID) msg.NodeRef { return msg.NodeRef{ID: id, Addr: "n" + id.String()} }

func deleteResp(t *testing.T, s *Service, req *msg.DHTDeleteReq) *msg.DHTDeleteResp {
	t.Helper()
	return call(t, s, req).(*msg.DHTDeleteResp)
}

// TestDeleteSweepsPrimariesBelowAKnownFloor: a floor learned out of band
// (a replica-delete push) leaves primaries alone, but a floor-carrying
// delete still removes every primary of the key at or below it — the
// arc its reply vouches for holds none — and reports, with its own
// removals, the one a read reclaimed under the same floor before it.
func TestDeleteSweepsPrimariesBelowAKnownFloor(t *testing.T) {
	s := NewService(arcRing{self: node(100), pred: node(50)}, vclock.System, nil, nil)
	ctx := context.Background()
	const key = "doc"
	for ts := uint64(1); ts <= 4; ts++ {
		s.Store().Put(ids.ID(60+ts), ids.LogSlot(key, ts).Name(0), []byte("p"))
	}
	floor := msg.TruncFloor{Key: key, TS: 3}
	if _, _, err := s.HandleRPC(ctx, "pred", &msg.DHTReplicaDeleteReq{Floor: floor}); err != nil {
		t.Fatal(err)
	}
	if s.Floor(key) != 3 || s.Store().Len() != 4 {
		t.Fatalf("out-of-band floor: floor %d, %d primaries; want 3 and all 4 kept", s.Floor(key), s.Store().Len())
	}
	// A read of ts 1 reclaims it lazily, below the floor.
	if resp, _, _ := s.HandleRPC(ctx, "reader", &msg.DHTGetReq{ID: 61}); resp.(*msg.DHTGetResp).Found {
		t.Fatal("a below-floor primary was served")
	}
	resp := deleteResp(t, s, &msg.DHTDeleteReq{ID: 90, Floor: floor})
	if resp.Deleted || resp.Swept != 3 {
		t.Fatalf("delete of an empty slot: deleted=%v swept=%d, want false and 3 (ts 1 read-reclaimed, ts 2-3 swept)", resp.Deleted, resp.Swept)
	}
	if want := (ids.Arc{From: 50, To: 100}); resp.Arc != want {
		t.Fatalf("arc %+v, want %+v", resp.Arc, want)
	}
	for _, e := range s.Store().SnapshotMeta() {
		if _, ts, _ := ids.ParseLogSlotName(e.Key); ts <= 3 {
			t.Fatalf("primary %s survived the floor-carrying delete", e.Key)
		}
	}
	if s.Store().Len() != 1 {
		t.Fatalf("%d primaries left, want ts 4 only", s.Store().Len())
	}
	// Counted once: a second delete of the same floor finds nothing.
	if again := deleteResp(t, s, &msg.DHTDeleteReq{ID: 90, Floor: floor}); again.Swept != 0 {
		t.Fatalf("second delete swept %d", again.Swept)
	}
}

// TestDeleteArcOnlyWhenVouched: a delete's reply names the responder's
// (pred, self] only for a floor-carrying delete addressed inside it, on
// a peer that knows a predecessor other than itself.
func TestDeleteArcOnlyWhenVouched(t *testing.T) {
	floor := msg.TruncFloor{Key: "doc", TS: 1}
	for _, tc := range []struct {
		name       string
		self, pred msg.NodeRef
		id         ids.ID
		floor      msg.TruncFloor
		want       ids.Arc
	}{
		{"inside", node(100), node(50), 70, floor, ids.Arc{From: 50, To: 100}},
		{"at self", node(100), node(50), 100, floor, ids.Arc{From: 50, To: 100}},
		{"wrapping", node(10), node(200), 250, floor, ids.Arc{From: 200, To: 10}},
		{"at pred", node(100), node(50), 50, floor, ids.Arc{}},
		{"outside", node(100), node(50), 150, floor, ids.Arc{}},
		{"no floor", node(100), node(50), 70, msg.TruncFloor{}, ids.Arc{}},
		{"no predecessor", node(100), msg.NodeRef{}, 70, floor, ids.Arc{}},
		{"predecessor is self", node(100), node(100), 70, floor, ids.Arc{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewService(arcRing{self: tc.self, pred: tc.pred}, vclock.System, nil, nil)
			if got := deleteResp(t, s, &msg.DHTDeleteReq{ID: tc.id, Floor: tc.floor}).Arc; got != tc.want {
				t.Fatalf("arc %+v, want %+v", got, tc.want)
			}
		})
	}
}
