package dht_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/dht"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// countingRing is a scripted chord.Ring: a fixed sorted node set, a
// counter per routing consult and per RPC, and direct dispatch of calls
// into per-node DHT services. It exists to pin the re-home batching
// contract — a large absorbed range must migrate in O(owners) RPCs —
// which a real cluster cannot assert precisely.
type countingRing struct {
	self  msg.NodeRef
	pred  ids.ID
	nodes []msg.NodeRef // sorted by ID; includes self
	svc   map[string]*dht.Service

	findSuccessors int
	calls          int
}

func (r *countingRing) Ref() msg.NodeRef             { return r.self }
func (r *countingRing) Successor() msg.NodeRef       { return msg.NodeRef{} }
func (r *countingRing) SuccessorList() []msg.NodeRef { return nil }
func (r *countingRing) Predecessor() msg.NodeRef     { return msg.NodeRef{ID: r.pred, Addr: "pred"} }
func (r *countingRing) Owns(key ids.ID) bool         { return ids.BetweenRightIncl(key, r.pred, r.self.ID) }

// Owner names no owner: re-homing always consults FindSuccessor, and the
// counts below pin those consults.
func (r *countingRing) Owner(ids.ID) (msg.NodeRef, bool) { return msg.NodeRef{}, false }

func (r *countingRing) FindSuccessor(ctx context.Context, key ids.ID) (msg.NodeRef, int, error) {
	r.findSuccessors++
	best := r.nodes[0]
	for _, n := range r.nodes {
		if uint64(n.ID) >= uint64(key) {
			best = n
			break
		}
	}
	return best, 1, nil
}

func (r *countingRing) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	r.calls++
	s, ok := r.svc[string(to)]
	if !ok {
		return nil, fmt.Errorf("no node at %s", to)
	}
	resp, handled, err := s.HandleRPC(ctx, "self", req)
	if err != nil || !handled {
		return nil, fmt.Errorf("unhandled %T: %v", req, err)
	}
	return resp, nil
}

func (r *countingRing) CallWithTimeout(ctx context.Context, to transport.Addr, req msg.Message, d time.Duration) (msg.Message, error) {
	return r.Call(ctx, to, req)
}

var _ chord.Ring = (*countingRing)(nil)

// newOwner is the service of a node that only receives re-homed slots:
// its ring has no successor, so it pushes no copies onward.
func newOwner(self msg.NodeRef) *dht.Service {
	return dht.NewService(&countingRing{self: self}, vclock.System, nil, nil)
}

// TestRehomeStrandedBatchesPerOwner absorbs a large foreign range into a
// node and asserts one routing consult plus one bulk RPC per owner —
// not per slot — with every slot landing at its owner and leaving the
// stranded node.
func TestRehomeStrandedBatchesPerOwner(t *testing.T) {
	// Ring layout: self owns (3000, 4000]; owners A (ID 1000) and
	// B (ID 2000) cover (4000, 1000] (wrapping) and (1000, 2000].
	self := msg.NodeRef{ID: 4000, Addr: "self"}
	a := msg.NodeRef{ID: 1000, Addr: "a"}
	b := msg.NodeRef{ID: 2000, Addr: "b"}

	svcA, svcB := newOwner(a), newOwner(b)
	ring := &countingRing{
		self:  self,
		pred:  3000,
		nodes: []msg.NodeRef{a, b, self},
		svc:   map[string]*dht.Service{"a": svcA, "b": svcB},
	}
	svcSelf := dht.NewService(ring, vclock.System, nil, nil)

	// 60 stranded slots across both foreign arcs, plus 5 slots this
	// node legitimately owns (they must stay).
	const perOwner = 30
	for i := 0; i < perOwner; i++ {
		idA := ids.ID(100 + i) // (4000, 1000] wraps through 0: owned by A
		svcSelf.Store().Put(idA, fmt.Sprintf("a-%d", i), []byte("va"))
		idB := ids.ID(1100 + i) // (1000, 2000]: owned by B
		svcSelf.Store().Put(idB, fmt.Sprintf("b-%d", i), []byte("vb"))
	}
	for i := 0; i < 5; i++ {
		svcSelf.Store().Put(ids.ID(3100+i), fmt.Sprintf("own-%d", i), []byte("vo"))
	}

	svcSelf.Maintain(context.Background())

	if got := svcSelf.Store().Len(); got != 5 {
		t.Fatalf("stranded node still holds %d slots, want 5 owned", got)
	}
	if got := svcA.Store().Len(); got != perOwner {
		t.Fatalf("owner A holds %d slots, want %d", got, perOwner)
	}
	if got := svcB.Store().Len(); got != perOwner {
		t.Fatalf("owner B holds %d slots, want %d", got, perOwner)
	}
	// The efficiency contract: one consult and one bulk put per owner.
	if ring.findSuccessors != 2 {
		t.Errorf("routing consults = %d, want 2 (one per owner)", ring.findSuccessors)
	}
	if ring.calls != 2 {
		t.Errorf("RPCs = %d, want 2 (one batch per owner)", ring.calls)
	}
}

// TestRehomeOccupiedSlotKeepsOwnerCopy: first-write-wins at the owner —
// the stranded copy is dropped locally either way.
func TestRehomeOccupiedSlotKeepsOwnerCopy(t *testing.T) {
	self := msg.NodeRef{ID: 4000, Addr: "self"}
	a := msg.NodeRef{ID: 1000, Addr: "a"}
	svcA := newOwner(a)
	ring := &countingRing{
		self:  self,
		pred:  3000,
		nodes: []msg.NodeRef{a, self},
		svc:   map[string]*dht.Service{"a": svcA},
	}
	svcSelf := dht.NewService(ring, vclock.System, nil, nil)

	svcA.Store().Put(500, "doc", []byte("owner-truth"))
	svcSelf.Store().Put(500, "doc", []byte("stale"))

	svcSelf.Maintain(context.Background())

	if got := svcSelf.Store().Len(); got != 0 {
		t.Fatalf("stranded copy not dropped: %d slots remain", got)
	}
	v, ok := svcA.Store().Get(500)
	if !ok || string(v) != "owner-truth" {
		t.Fatalf("owner slot = %q, %v; want original occupant", v, ok)
	}
}
