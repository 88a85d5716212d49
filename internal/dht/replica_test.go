package dht_test

import (
	"context"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
)

// findHolder returns the peer whose primary store holds position id.
func findHolder(c interface{ Live() []*core.Peer }, id ids.ID) *core.Peer {
	for _, p := range c.Live() {
		if _, ok := p.DHT.Store().Get(id); ok {
			return p
		}
	}
	return nil
}

// TestSuccessorCopyExists: after a put settles, the owner's successor
// holds a copy in its replica set (the Log-Peers-Succ mechanism).
func TestSuccessorCopyExists(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	key := "copied-key"
	if err := c.Peers[0].Client.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	id := ids.HashString(key)
	owner := findHolder(c, id)
	if owner == nil {
		t.Fatalf("no primary holder")
	}
	// Wait for async replication / maintenance.
	deadline := time.Now().Add(5 * time.Second)
	for {
		succAddr := owner.Node.Successor().Addr
		var succ *core.Peer
		for _, p := range c.Peers {
			if string(p.Addr()) == succAddr {
				succ = p
			}
		}
		if succ != nil {
			if _, ok := succ.DHT.ReplicaStore().Get(id); ok {
				return // copy in place
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("successor never received a copy of %v", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashPromotesSuccessorCopy: crash the owner; the value must remain
// readable — served (and promoted) from the successor's copy.
func TestCrashPromotesSuccessorCopy(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	key := "promote-key"
	if err := c.Peers[0].Client.Put(ctx, key, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	id := ids.HashString(key)
	owner := findHolder(c, id)
	if owner == nil {
		t.Fatalf("no holder")
	}
	// Give maintenance a beat to place the successor copy.
	time.Sleep(100 * time.Millisecond)
	c.Crash(owner)
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var reader *core.Peer
	for _, p := range c.Live() {
		reader = p
		break
	}
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	v, found, err := reader.Client.Get(cctx, key)
	if err != nil || !found || string(v) != "precious" {
		t.Fatalf("after owner crash: %q found=%v err=%v", v, found, err)
	}
	// The new owner eventually holds it as primary (promotion).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := findHolder(c, id); h != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("copy never promoted to primary")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
