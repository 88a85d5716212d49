package dht_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/transport"
)

// holderAndSucc locates the peer whose primary store holds ring
// position id and that peer's current successor.
func holderAndSucc(t *testing.T, peers []*core.Peer, id ids.ID) (owner, succ *core.Peer) {
	t.Helper()
	for _, p := range peers {
		if _, ok := p.DHT.Store().Get(id); ok {
			owner = p
		}
	}
	if owner == nil {
		t.Fatalf("no store holds %v", id)
	}
	succAddr := owner.Node.Successor().Addr
	for _, p := range peers {
		if string(p.Addr()) == succAddr {
			succ = p
		}
	}
	if succ == nil {
		t.Fatalf("successor %s of %s not found", succAddr, owner)
	}
	return owner, succ
}

// clientAway returns a running peer that is none of the given ones, to
// drive RPCs from outside the partitioned/crashed set.
func clientAway(t *testing.T, peers []*core.Peer, not ...*core.Peer) *core.Peer {
	t.Helper()
	for _, p := range peers {
		if !p.Node.Running() {
			continue
		}
		excluded := false
		for _, x := range not {
			if p == x {
				excluded = true
			}
		}
		if !excluded {
			return p
		}
	}
	t.Fatal("no live peer outside the excluded set")
	return nil
}

// slotCount counts how many stores (primary or replica) anywhere in the
// ring still hold ring position id.
func slotCount(peers []*core.Peer, id ids.ID) int {
	n := 0
	for _, p := range peers {
		if _, ok := p.DHT.Store().Get(id); ok {
			n++
		}
		if _, ok := p.DHT.ReplicaStore().Get(id); ok {
			n++
		}
	}
	return n
}

// TestTruncationFloorStopsResurrection forces the ROADMAP's
// truncated-slot resurrection race under virtual time, in both flavors.
//
// Flavor 1 (lost copy delete, owner survives a while): the successor
// misses the async replica delete of a truncated slot behind a
// partition. Without the truncation low-water mark, its stale copy
// waits to be promoted at the next owner crash — and no later sweep
// revisits reclaimed history, so the replica leaks forever. With it,
// the floor piggybacked on the owner's next maintenance refresh reaches
// the successor, which reclaims the copy before any promotion chance.
//
// Flavor 2 (owner dies immediately): the successor promotes the stale
// copy — the floor never reached it — and the resurrected slot then
// falls to the floor carried by the next truncation sweep, which the
// successor now serves as the slot's new owner.
func TestTruncationFloorStopsResurrection(t *testing.T) {
	c := newCluster(t, 8, transport.WithLatency(transport.ConstantLatency(time.Millisecond)))
	clk, net, peers := c.Clk, c.Net, c.Peers
	ctx := context.Background()

	publish := func(key string, ts uint64) ids.ID {
		slot := ids.LogSlot(key, ts)
		_, _, err := peers[0].Client.PutID(ctx, slot.Pos(0), slot.Name(0), []byte("patch"), true)
		if err != nil {
			t.Fatalf("publish %s/%d: %v", key, ts, err)
		}
		return slot.Pos(0)
	}

	// --- Flavor 1: floor reaches the successor via the refresh. ---
	key1 := "res-doc-1"
	slot1 := publish(key1, 1)
	owner1, succ1 := holderAndSucc(t, peers, slot1)
	waitFor(t, c, 10*time.Second, "successor copy of slot1", func() bool {
		_, ok := succ1.DHT.ReplicaStore().Get(slot1)
		return ok
	})

	// Truncate with the successor partitioned away: the primary delete
	// lands, the async replica delete is lost — the exact race window.
	caller := clientAway(t, peers, owner1, succ1)
	net.Partition([]transport.Addr{succ1.Addr()})
	if n, _, err := caller.Client.DeleteSlotID(ctx, slot1, key1, 1); err != nil || n == 0 {
		t.Fatalf("truncation delete: n=%d err=%v", n, err)
	}
	_ = clk.Sleep(ctx, 10*time.Millisecond) // let the doomed replica delete fire
	net.Heal()
	if _, ok := succ1.DHT.ReplicaStore().Get(slot1); !ok {
		t.Fatal("race not forced: the successor lost its stale copy before the partition healed")
	}

	// The owner's next maintenance refresh carries the floor; the
	// successor must sweep the stale copy on learning it.
	waitFor(t, c, 10*time.Second, "floor-driven replica sweep", func() bool {
		_, ok := succ1.DHT.ReplicaStore().Get(slot1)
		return !ok
	})
	net.Crash(owner1.Addr())
	owner1.Stop()
	_ = clk.Sleep(ctx, 2*time.Second) // takeover, promotion passes, re-replication
	if n := slotCount(peers, slot1); n != 0 {
		t.Fatalf("flavor 1: %d store(s) still hold the truncated slot after owner crash", n)
	}

	// --- Flavor 2: owner dies before any refresh; the next sweep's
	// floor reclaims the resurrected slot. ---
	var key2 string
	var slot2 ids.ID
	var owner2, succ2 *core.Peer
	for i := 0; ; i++ { // pick a key whose owner pair is still alive
		key2 = fmt.Sprintf("res-doc-2-%d", i)
		slot2 = ids.LogSlot(key2, 1).Pos(0)
		publish(key2, 1)
		owner2, succ2 = holderAndSucc(t, peers, slot2)
		if owner2.Node.Running() && succ2.Node.Running() && owner2 != succ2 {
			break
		}
	}
	waitFor(t, c, 10*time.Second, "successor copy of slot2", func() bool {
		_, ok := succ2.DHT.ReplicaStore().Get(slot2)
		return ok
	})
	caller = clientAway(t, peers, owner2, succ2)
	net.Partition([]transport.Addr{succ2.Addr()})
	if n, _, err := caller.Client.DeleteSlotID(ctx, slot2, key2, 1); err != nil || n == 0 {
		t.Fatalf("truncation delete: n=%d err=%v", n, err)
	}
	_ = clk.Sleep(ctx, 10*time.Millisecond)
	net.Heal()
	net.Crash(owner2.Addr()) // before any floor-carrying refresh
	owner2.Stop()

	// The successor — now the owner — promotes the stale copy: the leak
	// the low-water mark exists to stop is real.
	waitFor(t, c, 30*time.Second, "stale-copy resurrection", func() bool {
		_, ok := succ2.DHT.Store().Get(slot2)
		return ok
	})

	// A later truncation sweep of the same prefix delivers the floor to
	// the new owner, which must reclaim the resurrected slot — zero
	// resurrected replicas anywhere once the sweep lands.
	if _, err := caller.Log.TruncateTo(ctx, key2, 0, 1); err != nil {
		t.Fatalf("re-sweep: %v", err)
	}
	waitFor(t, c, 10*time.Second, "floor sweep of the resurrected slot", func() bool {
		return slotCount(peers, slot2) == 0
	})
}
