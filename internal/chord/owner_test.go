package chord

import (
	"fmt"
	"math/rand"
	"testing"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
)

// seededRing starts n nodes on a fresh simnet, wired by SeedRing with
// successor lists of 8.
func seededRing(t *testing.T, n int) []*Node {
	t.Helper()
	net := transport.NewSimnet()
	cfg := FastConfig()
	cfg.SuccListLen = 8
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(net.NewEndpoint(fmt.Sprintf("owner-%d", i)), cfg, nil, nil)
	}
	SeedRing(nodes)
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	return nodes
}

// TestOwnerFromSuccessorList: where the successor list closes the ring
// (8 peers, lists of 8), every node names successor(key) for every key
// from local state alone; on 16 peers the list spans half the ring and
// no node answers; nor does a node that knows no predecessor.
func TestOwnerFromSuccessorList(t *testing.T) {
	nodes := seededRing(t, 8)
	var keys []ids.ID
	for _, nd := range nodes {
		// Each node's own ID and both neighbours of it: the arc edges.
		keys = append(keys, nd.ID(), ids.Add(nd.ID(), 1), ids.Add(nd.ID(), ^uint64(0)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		keys = append(keys, ids.ID(rng.Uint64()))
	}
	for _, nd := range nodes {
		for _, k := range keys {
			got, ok := nd.Owner(k)
			if want := expectedOwner(nodes, k); !ok || got.ID != want.ID() || got.Addr != string(want.Addr()) {
				t.Fatalf("%s: Owner(%s) = %v, %v; want %s", nd.Addr(), k, got, ok, want.Addr())
			}
		}
	}

	for _, nd := range seededRing(t, 16) {
		if got, ok := nd.Owner(keys[0]); ok {
			t.Fatalf("%s on a 16-peer ring: Owner = %v, want no answer", nd.Addr(), got)
		}
	}

	// Stop every node first, so no notify can reinstall the predecessor.
	for _, nd := range nodes {
		nd.Stop()
	}
	nd := nodes[0]
	nd.mu.Lock()
	nd.pred = msg.NodeRef{}
	nd.mu.Unlock()
	if got, ok := nd.Owner(keys[0]); ok {
		t.Fatalf("with no predecessor: Owner = %v, want no answer", got)
	}
}
