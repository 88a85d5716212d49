package dht_test

import (
	"context"
	"fmt"
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
	waitFor(t, c, 5*time.Second, fmt.Sprintf("the successor to receive a copy of %v", id), func() bool {
		succAddr := owner.Node.Successor().Addr
		for _, p := range c.Peers {
			if string(p.Addr()) == succAddr {
				_, ok := p.DHT.ReplicaStore().Get(id)
				return ok
			}
		}
		return false
	})
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
	_ = c.Clk.Sleep(ctx, 100*time.Millisecond)
	c.Crash(owner)
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var reader *core.Peer
	for _, p := range c.Live() {
		reader = p
		break
	}
	cctx, cancel := c.Clk.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	v, found, err := reader.Client.Get(cctx, key)
	if err != nil || !found || string(v) != "precious" {
		t.Fatalf("after owner crash: %q found=%v err=%v", v, found, err)
	}
	// The new owner eventually holds it as primary (promotion).
	waitFor(t, c, 5*time.Second, "the copy to be promoted to primary", func() bool { return findHolder(c, id) != nil })
}
