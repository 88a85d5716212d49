package chord

import (
	"context"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
)

func TestConfigDefaults(t *testing.T) {
	d := DefaultConfig()
	if d.SuccListLen < 2 || d.CallTimeout <= 0 || d.StabilizeEvery <= 0 {
		t.Fatalf("bad defaults: %+v", d)
	}
	f := FastConfig()
	if f.StabilizeEvery >= d.StabilizeEvery {
		t.Fatalf("FastConfig is not faster than DefaultConfig")
	}
	// A zero config falls back to defaults at construction.
	net := transport.NewSimnet()
	n := NewNode(net.NewEndpoint("z"), Config{}, nil, nil)
	if n.cfg.SuccListLen != DefaultConfig().SuccListLen {
		t.Fatalf("zero config not defaulted")
	}
}

func TestNewNodeWithIDAndRef(t *testing.T) {
	net := transport.NewSimnet()
	n := NewNodeWithID(net.NewEndpoint("n"), 42, FastConfig(), nil, nil)
	if n.ID() != 42 {
		t.Fatalf("id %v", n.ID())
	}
	ref := n.Ref()
	if ref.ID != 42 || ref.Addr != "n" {
		t.Fatalf("ref %v", ref)
	}
}

func TestAttachAfterStartPanics(t *testing.T) {
	net := transport.NewSimnet()
	n := NewNode(net.NewEndpoint("n"), FastConfig(), nil, nil)
	n.Create()
	defer n.Stop()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	n.Attach(newRecorderService("late"))
}

func TestStopIsIdempotent(t *testing.T) {
	net := transport.NewSimnet()
	n := NewNode(net.NewEndpoint("n"), FastConfig(), nil, nil)
	n.Create()
	if !n.Running() {
		t.Fatalf("not running after Create")
	}
	n.Stop()
	n.Stop()
	if n.Running() {
		t.Fatalf("running after Stop")
	}
}

func TestLeaveLastNode(t *testing.T) {
	net := transport.NewSimnet()
	n := NewNode(net.NewEndpoint("n"), FastConfig(), nil, nil)
	svc := newRecorderService("rec")
	// Attach before Create.
	n.Attach(svc)
	n.Create()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Leave(ctx); err != nil {
		t.Fatalf("last-node leave: %v", err)
	}
	if n.Running() {
		t.Fatalf("still running after leave")
	}
}

func TestJoinUnreachableBootstrap(t *testing.T) {
	net := transport.NewSimnet()
	n := NewNode(net.NewEndpoint("n"), FastConfig(), nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := n.Join(ctx, "ghost"); err == nil {
		t.Fatalf("join via unreachable bootstrap succeeded")
	}
}

func TestOwnsWithoutPredecessorClaimsAll(t *testing.T) {
	net := transport.NewSimnet()
	n := NewNodeWithID(net.NewEndpoint("n"), 1000, FastConfig(), nil, nil)
	// Before any ring formation: conservative full claim.
	if !n.Owns(0) || !n.Owns(999) || !n.Owns(1000) || !n.Owns(5000) {
		t.Fatalf("node without predecessor must claim every key")
	}
}

func TestConcurrentLookupsDuringChurn(t *testing.T) {
	net, nodes := testRing(t, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				from := nodes[(g+i)%len(nodes)]
				if !from.Running() {
					continue
				}
				if _, _, err := from.FindSuccessor(ctx, ids.ID(uint64(i)*0x9E3779B97F4A7C15)); err != nil {
					// Lookups may transiently fail mid-crash; only a
					// persistent failure after stabilization is a bug, and
					// the post-churn check below catches that.
					continue
				}
			}
		}(g)
	}
	// Crash two nodes under the lookup load.
	time.Sleep(20 * time.Millisecond)
	net.Crash(nodes[2].Addr())
	nodes[2].Stop()
	time.Sleep(20 * time.Millisecond)
	net.Crash(nodes[5].Addr())
	nodes[5].Stop()
	waitStable(t, nodes, 15*time.Second)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After stabilization every lookup must succeed again.
	for _, n := range nodes {
		if !n.Running() {
			continue
		}
		if _, _, err := n.FindSuccessor(ctx, 12345); err != nil {
			t.Fatalf("post-churn lookup from %s: %v", n.Ref(), err)
		}
	}
}

// A notify with a zero candidate leaves every predecessor alone, also at
// the node whose arc (pred, self] wraps past ID 0.
func TestNotifyZeroCandidateIgnored(t *testing.T) {
	_, nodes := testRing(t, 2)
	for _, n := range nodes {
		pred := n.Predecessor()
		if _, err := n.Call(context.Background(), n.Addr(), &msg.NotifyReq{}); err != nil {
			t.Fatalf("notify: %v", err)
		}
		if got := n.Predecessor(); got != pred {
			t.Fatalf("%s: a zero-candidate notify moved the predecessor from %v to %v", n.Ref().Addr, pred, got)
		}
	}
}
