package chord

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/transport"
)

// TestSeedRing: a seeded ring must already be in the state sequential
// joins converge to — consistent successor/predecessor cycle, working
// lookups — and must stay there once maintenance runs.
func TestSeedRing(t *testing.T) {
	net := transport.NewSimnet()
	const n = 24
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(net.NewEndpoint(fmt.Sprintf("seed-%d", i)), FastConfig(), nil, nil)
	}
	SeedRing(nodes)
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})

	sorted := append([]*Node(nil), nodes...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sorted[j].ID() < sorted[i].ID() {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for i, nd := range sorted {
		next := sorted[(i+1)%n]
		prev := sorted[(i-1+n)%n]
		if nd.Successor().ID != next.ID() {
			t.Fatalf("node %d successor %v, want %v", i, nd.Successor().ID, next.ID())
		}
		if nd.Predecessor().ID != prev.ID() {
			t.Fatalf("node %d predecessor %v, want %v", i, nd.Predecessor().ID, prev.ID())
		}
		if !nd.Running() {
			t.Fatalf("node %d not running after SeedRing", i)
		}
	}

	// Lookups resolve to the correct owner from any node.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		key := sorted[i].ID() // owner of its own ID
		ref, _, err := sorted[(i+7)%n].FindSuccessor(ctx, key)
		if err != nil {
			t.Fatalf("lookup from %d: %v", i, err)
		}
		if ref.ID != sorted[i].ID() {
			t.Fatalf("successor(%v) = %v, want the node itself", key, ref.ID)
		}
	}

	// The seeded state survives real maintenance: after many stabilize
	// periods nothing has drifted.
	time.Sleep(50 * time.Millisecond)
	for i, nd := range sorted {
		if nd.Successor().ID != sorted[(i+1)%n].ID() {
			t.Fatalf("node %d successor drifted after maintenance", i)
		}
	}
}
