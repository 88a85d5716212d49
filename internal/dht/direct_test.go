package dht

import (
	"context"
	"slices"
	"testing"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// TestDirectRequestsRefusedOffArc: a put, get (parked or not) or delete
// marked Direct for an ID outside the peer's arc is answered NotOwner
// and changes nothing — no primary or copy stored, promoted or deleted,
// no floor recorded or swept, no read parked. The same requests without
// the mark are served as they always were, and a Direct request inside
// the arc is served like any other.
func TestDirectRequestsRefusedOffArc(t *testing.T) {
	s := NewService(arcRing{self: node(100), pred: node(50)}, vclock.System, nil, nil)
	const key = "doc"
	own, foreign := ids.ID(60), ids.ID(200)
	s.Store().Put(own, ids.LogSlot(key, 1).Name(0), []byte("p1"))
	s.ReplicaStore().Put(foreign, ids.LogSlot(key, 2).Name(0), []byte("copy"))
	put := func(id ids.ID, ts uint64, direct bool) *msg.DHTPutReq {
		return &msg.DHTPutReq{ID: id, Key: ids.LogSlot(key, ts).Name(0), Value: []byte("p"), IfAbsent: true, Direct: direct}
	}
	floor := msg.TruncFloor{Key: key, TS: 1}

	for _, req := range []msg.Message{
		put(foreign, 3, true),
		&msg.DHTGetReq{ID: foreign, Direct: true},
		&msg.DHTGetReq{ID: 150, Wait: time.Second, Direct: true},
		&msg.DHTDeleteReq{ID: foreign, Floor: floor, Direct: true},
	} {
		if resp := call(t, s, req); !notOwner(resp) {
			t.Fatalf("%s off the arc: %+v, want a NotOwner refusal", req.Kind(), resp)
		}
	}
	if got, want := names(s.Store()), []string{"log/doc/1/r0"}; !slices.Equal(got, want) {
		t.Fatalf("primaries after refusals: %v, want %v", got, want)
	}
	if got, want := names(s.ReplicaStore()), []string{"log/doc/2/r0"}; !slices.Equal(got, want) {
		t.Fatalf("copies after refusals: %v, want %v", got, want)
	}
	s.parkMu.Lock()
	parked := len(s.parked)
	s.parkMu.Unlock()
	if s.Floor(key) != 0 || parked != 0 || s.Counters().Counter("not-owner").Value() != 4 {
		t.Fatalf("after refusals: floor %d, %d parked slots, not-owner %d; want 0, 0, 4",
			s.Floor(key), parked, s.Counters().Counter("not-owner").Value())
	}

	// Inside the arc the mark changes nothing.
	if resp := call(t, s, put(70, 4, true)).(*msg.DHTPutResp); !resp.Stored || resp.NotOwner {
		t.Fatalf("direct put inside the arc: %+v, want stored", resp)
	}
	// Unmarked requests are served wherever they land, as before.
	if resp := call(t, s, &msg.DHTGetReq{ID: foreign}).(*msg.DHTGetResp); !resp.Found || string(resp.Value) != "copy" {
		t.Fatalf("routed get of a copy: %+v, want it served", resp)
	}
	if resp := call(t, s, put(foreign, 3, false)).(*msg.DHTPutResp); !resp.Stored || resp.NotOwner {
		t.Fatalf("routed put: %+v, want stored", resp)
	}
	if resp := call(t, s, &msg.DHTDeleteReq{ID: foreign, Floor: floor}).(*msg.DHTDeleteResp); !resp.Deleted || resp.Swept != 1 {
		t.Fatalf("routed delete: %+v, want the slot deleted and ts 1 swept", resp)
	}
	if got, want := names(s.Store()), []string{"log/doc/4/r0"}; !slices.Equal(got, want) || s.Floor(key) != 1 {
		t.Fatalf("after routed requests: primaries %v, floor %d; want %v and 1", got, s.Floor(key), want)
	}
}

// viewRing is a client's ring view over two services: Owner names guess
// (what a successor list believes), FindSuccessor names owner (what the
// walk finds), and calls dispatch straight into the addressed service.
type viewRing struct {
	soloRing
	guess, owner msg.NodeRef
	svc          map[string]*Service
	lookups      int
	calls        int
}

func (r *viewRing) Owner(ids.ID) (msg.NodeRef, bool) { return r.guess, true }
func (r *viewRing) FindSuccessor(context.Context, ids.ID) (msg.NodeRef, int, error) {
	r.lookups++
	return r.owner, 1, nil
}
func (r *viewRing) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	r.calls++
	resp, _, err := r.svc[string(to)].HandleRPC(ctx, "client", req)
	return resp, err
}
func (r *viewRing) CallWithTimeout(ctx context.Context, to transport.Addr, req msg.Message, _ time.Duration) (msg.Message, error) {
	return r.Call(ctx, to, req)
}

// TestClientGuessesThenWalks: a client whose view names the owner
// reaches it in one call and no lookup; when the view names a stale peer,
// that peer refuses, the client walks to the true owner and stores,
// reads and deletes there, and none of it counts as a retry.
func TestClientGuessesThenWalks(t *testing.T) {
	a, b := node(100), node(200) // a owns (50, 100], b owns (100, 200]
	const id = ids.ID(150)
	for _, tc := range []struct {
		name           string
		guess          msg.NodeRef
		lookups, calls int
	}{
		{"view names the owner", b, 0, 3},
		{"view names a stale peer", a, 3, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svcA := NewService(arcRing{self: a, pred: node(50)}, vclock.System, nil, nil)
			svcB := NewService(arcRing{self: b, pred: a}, vclock.System, nil, nil)
			ring := &viewRing{guess: tc.guess, owner: b, svc: map[string]*Service{a.Addr: svcA, b.Addr: svcB}}
			c := NewClient(ring, 3, time.Hour, vclock.System)
			ctx := context.Background()
			if stored, _, err := c.PutID(ctx, id, "k", []byte("v"), true); err != nil || !stored {
				t.Fatalf("put: stored=%v err=%v", stored, err)
			}
			if v, found, err := c.GetID(ctx, id); err != nil || !found || string(v) != "v" {
				t.Fatalf("get: %q found=%v err=%v", v, found, err)
			}
			if _, _, err := c.DeleteSlotID(ctx, id, "", 0); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if svcA.Store().Len() != 0 || svcA.Counters().Counter("puts").Value() != 0 {
				t.Fatalf("the stale peer served a put: %d primaries", svcA.Store().Len())
			}
			if svcB.Counters().Counter("puts").Value() != 1 || svcB.Counters().Counter("deletes").Value() != 1 {
				t.Fatal("the owner did not serve the put and the delete")
			}
			if ring.lookups != tc.lookups || ring.calls != tc.calls {
				t.Fatalf("%d lookups and %d calls, want %d and %d", ring.lookups, ring.calls, tc.lookups, tc.calls)
			}
			if r := c.Counters().Counter("retries").Value(); r != 0 {
				t.Fatalf("retries = %d, want 0: a refused guess is not a retry", r)
			}
		})
	}
}
