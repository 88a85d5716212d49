package core_test

import (
	"context"
	"testing"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
)

// The tests in this file run over real sockets on the wall clock: they
// are the real concurrency the race detector sees, so they build their
// peers directly instead of through ringtest.

// tcpRing joins n peers with aggressive chord timers on loopback TCP,
// lets the ring stabilize and, at cleanup, stops the peers and closes
// their endpoints (Peer.Stop models a crash and leaves the sockets open).
// It skips the test under -short.
func tcpRing(t *testing.T, n int, tr *trace.Tracer) []*core.Peer {
	t.Helper()
	if testing.Short() {
		t.Skip("real network")
	}
	opts := core.Options{
		Tracer: tr,
		Chord: chord.Config{
			SuccListLen:     6,
			StabilizeEvery:  20 * time.Millisecond,
			FixFingersEvery: 10 * time.Millisecond,
			CheckPredEvery:  40 * time.Millisecond,
			CallTimeout:     2 * time.Second,
		},
	}
	peers := make([]*core.Peer, 0, n)
	eps := make([]*transport.TCPEndpoint, 0, n)
	t.Cleanup(func() {
		for _, p := range peers {
			p.Stop()
		}
		for _, ep := range eps {
			ep.Close()
		}
	})
	for i := 0; i < n; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
		p := core.NewPeer(ep, opts)
		peers = append(peers, p)
		if i == 0 {
			p.Create()
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = p.Join(ctx, peers[0].Addr())
		cancel()
		if err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	time.Sleep(300 * time.Millisecond) // stabilize over TCP
	return peers
}

// TestEndToEndOverTCP runs the full protocol over real sockets: ring
// formation, concurrent commits, retrieval and convergence.
func TestEndToEndOverTCP(t *testing.T) {
	peers := tcpRing(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	a := core.NewReplica(peers[1], "tcp-doc", "alice")
	b := core.NewReplica(peers[2], "tcp-doc", "bob")
	a.SetText("alpha")
	b.SetText("beta")
	if _, err := a.Commit(ctx); err != nil {
		t.Fatalf("alice: %v", err)
	}
	if _, err := b.Commit(ctx); err != nil {
		t.Fatalf("bob: %v", err)
	}
	if err := a.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() || a.CommittedTS() != 2 {
		t.Fatalf("TCP divergence: %q vs %q (ts %d)", a.Text(), b.Text(), a.CommittedTS())
	}
}

// TestTracePropagationTCP asserts the same property over real sockets:
// the trace context survives wire encoding and the tcpnet server-side
// extraction, so one trace ID still spans >= 3 peers.
func TestTracePropagationTCP(t *testing.T) {
	tr := trace.New(nil, 4096)
	tr.SetOrigin("tcp-origin")
	peers := tcpRing(t, 6, tr)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if got := commitSpansPeers(t, ctx, tr, peers, 4); got < 3 {
		t.Fatalf("best commit trace reached %d distinct serving peers over TCP, want >= 3", got)
	}
}
