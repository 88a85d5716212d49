package kts_test

import (
	"context"
	"testing"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/transport"
)

// TestRecoverFromLogWhenClientAhead exercises the total-failover recovery
// path: a master with NO timestamp state (both the old master and its
// successor replaced) receives a validation from a client whose local ts
// is ahead. The master must re-synchronize last-ts from the write-once
// P2P-Log before deciding.
func TestRecoverFromLogWhenClientAhead(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	key := "recovery-doc"

	// Seed the log directly: timestamps 1..3 committed, but no KTS state
	// anywhere (simulates total loss of master + successor state while
	// the log survived via its Hr replicas).
	log := c.Peers[0].Log
	for ts := uint64(1); ts <= 3; ts++ {
		rec := p2plog.Record{Key: key, TS: ts, PatchID: "ghost", Patch: []byte("x")}
		if _, err := log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}

	// A client at ts=3 validates: the master (which knows nothing) must
	// roll forward from the log and grant ts=4.
	r := validate(t, c, 0, key, 3, "u#1")
	if r.Status != msg.ValidateOK {
		t.Fatalf("status %v lastTS=%d", r.Status, r.LastTS)
	}
	if r.ValidatedTS != 4 {
		t.Fatalf("recovered grant ts=%d, want 4", r.ValidatedTS)
	}
}

// TestClientAheadOfLogRejected: a client claiming a timestamp the log
// cannot substantiate is refused with an error, not granted.
func TestClientAheadOfLogRejected(t *testing.T) {
	c := newCluster(t, 4)
	key := "bogus-doc"
	ctx, cancel := c.Clk.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	node := c.Peers[0].Node
	master, _, err := node.FindSuccessor(ctx, ids.HashTS(key))
	if err != nil {
		t.Fatal(err)
	}
	_, err = node.Call(ctx, transport.Addr(master.Addr), &msg.ValidateReq{
		Key: key, TS: 99, Patch: []byte("x"), PatchID: "liar#1",
	})
	if err == nil {
		t.Fatalf("fabricated timestamp accepted")
	}
}

// TestMasterRollsForwardPastClient: recovery also picks up commits beyond
// the client's claim (the previous incarnation had granted more).
func TestMasterRollsForwardPastClient(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	key := "rollforward-doc"
	log := c.Peers[0].Log
	for ts := uint64(1); ts <= 5; ts++ {
		rec := p2plog.Record{Key: key, TS: ts, PatchID: "ghost", Patch: []byte("x")}
		if _, err := log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	// Client is at ts=2; log is at 5. The master must answer Behind with
	// lastTS=5 (not grant 3, which would collide with the log).
	r := validate(t, c, 1, key, 2, "u#1")
	if r.Status != msg.ValidateBehind {
		t.Fatalf("status %v", r.Status)
	}
	if r.LastTS != 5 {
		t.Fatalf("recovered lastTS=%d, want 5", r.LastTS)
	}
}

// TestReplicateTSMonotone: stale replications never regress last-ts.
func TestReplicateTSMonotone(t *testing.T) {
	c := newCluster(t, 3)
	key := "mono-doc"
	for i := uint64(0); i < 3; i++ {
		if r := validate(t, c, 0, key, i, "u#x"); r.Status != msg.ValidateOK {
			t.Fatalf("grant %d: %v", i, r.Status)
		}
	}
	// Find the peer holding the successor replica and push a stale value.
	for _, p := range c.Peers {
		p.KTS.HandleRPC(context.Background(), "", &msg.ReplicateTSReq{Key: key, LastTS: 1})
	}
	if got := lastTS(t, c, key); got != 3 {
		t.Fatalf("stale replication regressed last-ts to %d", got)
	}
}
