package chord

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
)

// testRing spins up n nodes on a fresh simnet and waits for the ring to
// stabilize.
func testRing(t *testing.T, n int) (*transport.Simnet, []*Node) {
	t.Helper()
	net := transport.NewSimnet()
	nodes := buildRing(t, net, n)
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	return net, nodes
}

func buildRing(t *testing.T, net *transport.Simnet, n int) []*Node {
	t.Helper()
	cfg := FastConfig()
	nodes := make([]*Node, 0, n)
	first := NewNode(net.NewEndpoint("node-0"), cfg, nil, nil)
	first.Create()
	nodes = append(nodes, first)
	for i := 1; i < n; i++ {
		nd := NewNode(net.NewEndpoint(fmt.Sprintf("node-%d", i)), cfg, nil, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := nd.Join(ctx, first.Addr()); err != nil {
			cancel()
			t.Fatalf("join node %d: %v", i, err)
		}
		cancel()
		nodes = append(nodes, nd)
	}
	waitStable(t, nodes, 10*time.Second)
	return nodes
}

// waitStable blocks until the ring's successor pointers form the correct
// sorted cycle over all running nodes.
func waitStable(t *testing.T, nodes []*Node, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if ringConsistent(nodes) {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				if n.Running() {
					t.Logf("node %s: succ=%s pred=%s", n.Ref(), n.Successor(), n.Predecessor())
				}
			}
			t.Fatalf("ring did not stabilize within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ringConsistent checks that each running node's successor is the next
// running node in ID order and its predecessor is the previous one.
func ringConsistent(nodes []*Node) bool {
	var live []*Node
	for _, n := range nodes {
		if n.Running() {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return true
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID() < live[j].ID() })
	for i, n := range live {
		want := live[(i+1)%len(live)]
		if n.Successor().ID != want.ID() {
			return false
		}
		prev := live[(i-1+len(live))%len(live)]
		if n.Predecessor().ID != prev.ID() {
			return false
		}
	}
	return true
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	_, nodes := testRing(t, 1)
	n := nodes[0]
	if !n.Owns(0) || !n.Owns(n.ID()) || !n.Owns(n.ID()+1) {
		t.Fatalf("single node must own the whole ring")
	}
	ref, hops, err := n.FindSuccessor(context.Background(), 12345)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if ref.ID != n.ID() {
		t.Fatalf("lookup on single ring returned %s", ref)
	}
	if hops < 1 {
		t.Fatalf("hops = %d", hops)
	}
}

func TestRingFormsAndLookupsAgree(t *testing.T) {
	_, nodes := testRing(t, 8)
	keys := []ids.ID{0, 1 << 10, 1 << 30, 1 << 50, ^ids.ID(0) - 5, ids.HashString("Main.WebHome")}
	for _, k := range keys {
		want := expectedOwner(nodes, k)
		for _, from := range nodes {
			got, _, err := from.FindSuccessor(context.Background(), k)
			if err != nil {
				t.Fatalf("lookup %v from %s: %v", k, from.Ref(), err)
			}
			if got.ID != want.ID() {
				t.Fatalf("lookup %v from %s: got %s want %s", k, from.Ref(), got, want.Ref())
			}
		}
	}
}

// expectedOwner computes successor(k) among running nodes analytically.
func expectedOwner(nodes []*Node, k ids.ID) *Node {
	var live []*Node
	for _, n := range nodes {
		if n.Running() {
			live = append(live, n)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID() < live[j].ID() })
	for _, n := range live {
		if n.ID() >= k {
			return n
		}
	}
	return live[0]
}

func TestOwnershipPartition(t *testing.T) {
	_, nodes := testRing(t, 6)
	for _, k := range []ids.ID{7, 1 << 20, 1 << 40, 1 << 60, ^ids.ID(0)} {
		owners := 0
		for _, n := range nodes {
			if n.Owns(k) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %v claimed by %d nodes, want exactly 1", k, owners)
		}
	}
}

// A join's notify makes the successor adopt the joiner and export the
// key range it now owns.
func TestJoinNotifyTriggersExport(t *testing.T) {
	net := transport.NewSimnet()
	cfg := FastConfig()
	a := NewNode(net.NewEndpoint("a"), cfg, nil, nil)
	svc := newRecorderService("rec")
	a.Attach(svc)
	a.Create()
	defer a.Stop()

	b := NewNode(net.NewEndpoint("b"), cfg, nil, nil)
	bsvc := newRecorderService("rec")
	b.Attach(bsvc)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Join(ctx, a.Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	defer b.Stop()
	if svc.exports.Load() == 0 {
		t.Fatalf("join did not make the successor export state on notify")
	}
}

func TestLeavePushesStateToSuccessor(t *testing.T) {
	net := transport.NewSimnet()
	cfg := FastConfig()
	a := NewNode(net.NewEndpoint("a"), cfg, nil, nil)
	asvc := newRecorderService("rec")
	a.Attach(asvc)
	a.Create()
	defer a.Stop()

	b := NewNode(net.NewEndpoint("b"), cfg, nil, nil)
	bsvc := newRecorderService("rec")
	bsvc.items = []msg.StateItem{{Service: "rec", Key: "k", ID: 42, Value: []byte("v")}}
	b.Attach(bsvc)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Join(ctx, a.Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	waitStable(t, []*Node{a, b}, 5*time.Second)

	if err := b.Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := asvc.imported.Load(); got != 1 {
		t.Fatalf("successor imported %d items after leave, want 1", got)
	}
}

func TestSuccessorFailover(t *testing.T) {
	net, nodes := testRing(t, 6)
	// Crash the successor of node 0.
	victimRef := nodes[0].Successor()
	var victim *Node
	for _, n := range nodes {
		if n.Ref().Addr == victimRef.Addr {
			victim = n
		}
	}
	if victim == nil {
		t.Fatalf("victim not found")
	}
	net.Crash(victim.Addr())
	victim.Stop()

	waitStable(t, nodes, 10*time.Second)
	// Lookups still work from every live node for the victim's keys.
	k := victim.ID() // now owned by victim's old successor
	want := expectedOwner(nodes, k)
	for _, n := range nodes {
		if !n.Running() {
			continue
		}
		got, _, err := n.FindSuccessor(context.Background(), k)
		if err != nil {
			t.Fatalf("post-crash lookup from %s: %v", n.Ref(), err)
		}
		if got.ID != want.ID() {
			t.Fatalf("post-crash lookup: got %s want %s", got, want.Ref())
		}
	}
}

func TestCascadedFailures(t *testing.T) {
	net, nodes := testRing(t, 8)
	// Crash two adjacent nodes simultaneously (successor list must cover).
	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	v1, v2 := sorted[2], sorted[3]
	net.Crash(v1.Addr())
	net.Crash(v2.Addr())
	v1.Stop()
	v2.Stop()
	waitStable(t, nodes, 15*time.Second)
}

func TestHopCountGrowsLogarithmically(t *testing.T) {
	if testing.Short() {
		t.Skip("ring build is slow")
	}
	_, nodes := testRing(t, 24)
	// Warm fingers.
	time.Sleep(300 * time.Millisecond)
	var total, count int
	for i := 0; i < 64; i++ {
		k := ids.HashString(fmt.Sprintf("key-%d", i))
		_, hops, err := nodes[i%len(nodes)].FindSuccessor(context.Background(), k)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		total += hops
		count++
	}
	mean := float64(total) / float64(count)
	if mean > 10 {
		t.Fatalf("mean hops %.1f too high for 24 nodes (fingers not working)", mean)
	}
}

func TestNotifyRejectsWorseCandidate(t *testing.T) {
	_, nodes := testRing(t, 4)
	n := nodes[0]
	pred := n.Predecessor()
	// A candidate that is NOT between pred and self must be rejected.
	outside := msg.NodeRef{ID: n.ID(), Addr: "bogus"} // equals self ID
	n.handleNotify(outside)
	if n.Predecessor().Addr != pred.Addr {
		t.Fatalf("notify accepted a bogus candidate")
	}
}

func TestUnhandledMessageRejected(t *testing.T) {
	_, nodes := testRing(t, 1)
	_, err := nodes[0].Call(context.Background(), nodes[0].Addr(), &msg.ValidateReq{Key: "x"})
	if err == nil {
		t.Fatalf("expected error for message with no service mounted")
	}
}

func TestLookupStats(t *testing.T) {
	_, nodes := testRing(t, 4)
	for i := 0; i < 10; i++ {
		if _, _, err := nodes[0].FindSuccessor(context.Background(), ids.ID(i)*1e18); err != nil {
			t.Fatalf("lookup: %v", err)
		}
	}
	count, mean := nodes[0].LookupStats()
	if count != 10 || mean <= 0 {
		t.Fatalf("stats: count=%d mean=%.2f", count, mean)
	}
}
