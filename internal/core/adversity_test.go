package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

// TestEndToEndOverTCP runs the full protocol over real sockets: ring
// formation, concurrent commits, retrieval and convergence.
func TestEndToEndOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real network")
	}
	cfg := chord.Config{
		SuccListLen:     6,
		StabilizeEvery:  20 * time.Millisecond,
		FixFingersEvery: 10 * time.Millisecond,
		CheckPredEvery:  40 * time.Millisecond,
		CallTimeout:     2 * time.Second,
	}
	opts := core.Options{Chord: cfg}
	const n = 4
	peers := make([]*core.Peer, 0, n)
	for i := 0; i < n; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPeer(ep, opts)
		if i == 0 {
			p.Create()
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := p.Join(ctx, peers[0].Addr())
			cancel()
			if err != nil {
				t.Fatalf("join: %v", err)
			}
		}
		peers = append(peers, p)
	}
	defer func() {
		for _, p := range peers {
			p.Stop()
		}
	}()
	time.Sleep(300 * time.Millisecond) // stabilize over TCP

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

// TestCommitUnderMessageLoss drives commits through a lossy network: the
// semi-synchronous retry machinery, plus the application retrying a
// Commit whose master stayed unreachable, must mask 10% message loss. A
// retried Commit keeps its patch ID, so a patch the master logged before
// the give-up is recognised, not committed twice.
func TestCommitUnderMessageLoss(t *testing.T) {
	c, err := ringtest.NewCluster(5, ringtest.FastOptions(), transport.WithDropProb(0, 99))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	// Enable loss only after the ring is built (building under loss is a
	// different experiment).
	c.Net.SetDropProb(0.10)
	defer c.Net.SetDropProb(0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r := core.NewReplica(c.Peers[0], "lossy-doc", "alice")
	for i := 0; i < 5; i++ {
		if err := r.Insert(0, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		ts, err := r.Commit(ctx)
		for errors.Is(err, core.ErrMasterUnavailable) {
			ts, err = r.Commit(ctx)
		}
		if err != nil {
			t.Fatalf("commit %d under loss: %v", i, err)
		}
		// Because the commit RPC itself can be acked-and-lost, the
		// replica may observe Behind + own-patch recovery; ts must still
		// advance continuously.
		if ts != uint64(i+1) {
			t.Fatalf("ts %d at round %d", ts, i)
		}
	}
	c.Net.SetDropProb(0)
	// Loss-induced false suspicions may have reorganized the ring; let it
	// settle before asserting on a fresh replica's pull.
	if err := c.WaitStable(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	b := core.NewReplica(c.Peers[3], "lossy-doc", "bob")
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Text() != r.Text() {
		t.Fatalf("divergence after loss: %q vs %q", b.Text(), r.Text())
	}
}

// TestPartitionHealsAndConverges: a short partition separates an editor
// from the rest of the ring; commits fail cleanly during it and succeed
// after healing. (The paper's network model is semi-synchronous with
// fail-stop peers — long-lived partitions that trigger ring splits are
// out of scope, so maintenance timers here are slower than the partition
// so the ring topology survives it.)
func TestPartitionHealsAndConverges(t *testing.T) {
	opts := ringtest.FastOptions()
	opts.Chord.StabilizeEvery = 500 * time.Millisecond
	opts.Chord.CheckPredEvery = time.Second
	opts.Chord.FixFingersEvery = 200 * time.Millisecond
	opts.Chord.CallTimeout = 150 * time.Millisecond
	opts.ClientBackoff = 20 * time.Millisecond
	c, err := ringtest.NewCluster(6, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	ctx := ctxT(t, 60*time.Second)

	// Pick a document whose master is NOT the editor's peer, so the
	// validation has to cross the partition.
	key := ""
	for i := 0; i < 100; i++ {
		cand := fmt.Sprintf("part-doc-%d", i)
		if c.MasterOf(uint64(ids.HashTS(cand))) != c.Peers[0] {
			key = cand
			break
		}
	}
	if key == "" {
		t.Fatalf("no suitable key found")
	}
	r := core.NewReplica(c.Peers[0], key, "alice")
	r.SetText("before partition")
	if _, err := r.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Isolate the editor's peer from everyone else, briefly.
	var rest []transport.Addr
	for _, p := range c.Peers[1:] {
		rest = append(rest, p.Addr())
	}
	c.Net.Partition([]transport.Addr{c.Peers[0].Addr()}, rest)

	r.SetText("before partition\nduring partition")
	sctx, scancel := context.WithTimeout(ctx, 300*time.Millisecond)
	_, err = r.Commit(sctx)
	scancel()
	if err == nil {
		t.Fatalf("commit succeeded across a partition")
	}

	c.Net.Heal()
	if err := c.WaitStable(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(ctx); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	b := core.NewReplica(c.Peers[4], key, "bob")
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Text() != r.Text() {
		t.Fatalf("divergence after heal")
	}
}

// TestConcurrentJoinsDuringEditing stresses the stabilization-time state
// migration: several peers join at once while commits are in flight.
func TestConcurrentJoinsDuringEditing(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, 60*time.Second)
	r := core.NewReplica(c.Peers[0], "join-storm", "alice")

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if err := r.Insert(0, fmt.Sprintf("v%d", i)); err != nil {
				done <- err
				return
			}
			if _, err := r.Commit(ctx); err != nil {
				done <- err
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		done <- nil
	}()
	// Join 4 peers concurrently with the edits.
	for i := 0; i < 4; i++ {
		if _, err := c.AddPeer(c.Peers[0]); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("editing during join storm: %v", err)
	}
	if r.CommittedTS() != 10 {
		t.Fatalf("continuity across join storm: ts=%d", r.CommittedTS())
	}
	nr := core.NewReplica(c.Peers[len(c.Peers)-1], "join-storm", "bob")
	if err := nr.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if nr.Text() != r.Text() {
		t.Fatalf("new peer diverged after join storm")
	}
}

// TestTwoDocumentsIndependentTimestamps verifies timestamps are per-key:
// concurrent commits on different documents never interleave counters.
func TestTwoDocumentsIndependentTimestamps(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, 30*time.Second)
	a := core.NewReplica(c.Peers[0], "doc-a", "alice")
	b := core.NewReplica(c.Peers[1], "doc-b", "bob")
	for i := 0; i < 3; i++ {
		if err := a.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(0, "y"); err != nil {
			t.Fatal(err)
		}
		tsA, err := a.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tsB, err := b.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if tsA != uint64(i+1) || tsB != uint64(i+1) {
			t.Fatalf("per-key counters mixed: a=%d b=%d at round %d", tsA, tsB, i)
		}
	}
}
