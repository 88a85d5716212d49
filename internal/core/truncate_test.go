package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"p2pltr/internal/core"
	"p2pltr/internal/ringtest"
)

// truncatedCluster builds a ring with checkpointing, commits patches
// past one boundary through a writer, and truncates the covered log
// prefix — the state a long-offline replica wakes up to.
func truncatedCluster(t *testing.T, interval uint64, patches int) (*ringtest.Cluster, *core.Replica, string) {
	t.Helper()
	c := newClusterWith(t, 6, core.Options{CheckpointInterval: interval})
	ctx := context.Background()
	key := "truncated-doc"
	w := core.NewReplica(c.Peers[0], key, "writer")
	for i := 0; i < patches; i++ {
		if err := w.Insert(0, fmt.Sprintf("committed %d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if upTo, _ := truncateCovered(t, ctx, c.Peers[0], key); upTo != interval {
		t.Fatalf("truncated to %d, want %d", upTo, interval)
	}
	return c, w, key
}

// truncateCovered truncates key's log the way the maintenance engine
// does: resolve the pointer, repair the checkpoint it names, and only on
// full replication truncate the log up to it.
func truncateCovered(t *testing.T, ctx context.Context, p *core.Peer, key string) (upTo uint64, deleted int) {
	t.Helper()
	upTo, err := p.Ckpt.LatestPointer(ctx, key)
	if err != nil {
		t.Fatalf("pointer: %v", err)
	}
	if _, full, err := p.Ckpt.Repair(ctx, key, upTo); err != nil || !full {
		t.Fatalf("checkpoint %d of %s: full=%v err=%v", upTo, key, full, err)
	}
	if deleted, err = p.Log.TruncateTo(ctx, key, 0, upTo); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	return upTo, deleted
}

// TestTruncatedPrefixSurfacesTypedError: a replica with tentative edits
// whose needed log prefix was truncated cannot catch up losslessly; it
// must fail with ErrTruncated (not a bare retrieval ErrMissing) on both
// the Pull and the Commit paths.
func TestTruncatedPrefixSurfacesTypedError(t *testing.T) {
	c, _, key := truncatedCluster(t, 4, 6)
	ctx := context.Background()

	puller := core.NewReplica(c.Peers[1], key, "puller")
	if err := puller.Insert(0, "tentative"); err != nil {
		t.Fatal(err)
	}
	if err := puller.Pull(ctx); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("Pull over truncated prefix = %v, want ErrTruncated", err)
	}

	committer := core.NewReplica(c.Peers[2], key, "committer")
	if err := committer.Insert(0, "tentative"); err != nil {
		t.Fatal(err)
	}
	if _, err := committer.Commit(ctx); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("Commit over truncated prefix = %v, want ErrTruncated", err)
	}

	// Without tentative edits the same replica just bootstraps.
	clean := core.NewReplica(c.Peers[3], key, "clean")
	if err := clean.Pull(ctx); err != nil {
		t.Fatalf("clean pull: %v", err)
	}
	if clean.CommittedTS() != 6 {
		t.Fatalf("clean pull reached ts %d, want 6", clean.CommittedTS())
	}
}

// TestRebaseOntoCheckpointRecovers: opting into the rebase policy lets
// the stranded replica re-anchor its tentative edits on the checkpoint
// state (losing positional precision, keeping intent) and rejoin the
// protocol.
func TestRebaseOntoCheckpointRecovers(t *testing.T) {
	c, w, key := truncatedCluster(t, 4, 6)
	ctx := context.Background()

	r := core.NewReplica(c.Peers[1], key, "rebaser")
	if err := r.Insert(0, "my tentative line"); err != nil {
		t.Fatal(err)
	}
	r.SetRebaseOntoCheckpoint(true)
	if err := r.Pull(ctx); err != nil {
		t.Fatalf("rebased pull: %v", err)
	}
	if r.CommittedTS() != 6 {
		t.Fatalf("rebased pull reached ts %d, want 6", r.CommittedTS())
	}
	if r.Rebases() != 1 {
		t.Fatalf("rebases = %d, want 1", r.Rebases())
	}
	if !r.Dirty() {
		t.Fatal("tentative edit lost in the rebase")
	}

	ts, err := r.Commit(ctx)
	if err != nil {
		t.Fatalf("commit after rebase: %v", err)
	}
	if ts != 7 {
		t.Fatalf("commit after rebase validated at ts %d, want 7", ts)
	}
	if err := w.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if w.Text() != r.Text() {
		t.Fatalf("writer and rebaser diverged:\n%q\nvs\n%q", w.Text(), r.Text())
	}
}

// TestPullToStopsAtTarget: the maintenance producer's reconstruction
// primitive integrates history to exactly the requested timestamp, using
// a covered checkpoint when one helps and refusing to run backwards.
func TestPullToStopsAtTarget(t *testing.T) {
	c, w, key := truncatedCluster(t, 4, 6)
	ctx := context.Background()

	r := core.NewReplica(c.Peers[4], key, "puller")
	// Target on the truncated boundary: resolved purely from the
	// checkpoint, no log fetches needed.
	if err := r.PullTo(ctx, 4); err != nil {
		t.Fatalf("PullTo(4): %v", err)
	}
	if r.CommittedTS() != 4 {
		t.Fatalf("PullTo(4) reached ts %d", r.CommittedTS())
	}
	// Mid-tail target: checkpoint plus one log record.
	if err := r.PullTo(ctx, 5); err != nil {
		t.Fatalf("PullTo(5): %v", err)
	}
	if r.CommittedTS() != 5 {
		t.Fatalf("PullTo(5) reached ts %d", r.CommittedTS())
	}
	// Running backwards is a caller bug.
	if err := r.PullTo(ctx, 3); err == nil {
		t.Fatal("PullTo(3) from ts 5 succeeded")
	}
	if err := r.PullTo(ctx, 6); err != nil {
		t.Fatalf("PullTo(6): %v", err)
	}
	if got, want := r.CommittedText(), w.CommittedText(); got != want {
		t.Fatalf("reconstructed state diverged:\n%q\nvs\n%q", got, want)
	}
}

// TestRebaseDroppingAllOpsSurfacesSentinel: when the checkpoint state
// cannot host any of the tentative ops (deletes clamped onto an empty
// snapshot), Commit must not publish a phantom empty patch — it returns
// ErrTentativeDropped with the replica consistent and current.
func TestRebaseDroppingAllOpsSurfacesSentinel(t *testing.T) {
	c := newClusterWith(t, 6, core.Options{CheckpointInterval: 4})
	ctx := context.Background()
	key := "drop-doc"
	// The boundary state is EMPTY: insert/delete pairs so the author's
	// checkpoint at ts 4 snapshots zero lines.
	w := core.NewReplica(c.Peers[0], key, "writer")
	script := []func() error{
		func() error { return w.Insert(0, "x") },
		func() error { return w.Delete(0) },
		func() error { return w.Insert(0, "y") },
		func() error { return w.Delete(0) },
		func() error { return w.Insert(0, "a") },
		func() error { return w.Insert(0, "b") },
	}
	for i, step := range script {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := w.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	// A laggard replica at ts 1 holds a tentative delete of the only line.
	r := core.NewReplica(c.Peers[1], key, "laggard")
	if err := r.PullTo(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(0); err != nil {
		t.Fatal(err)
	}
	if upTo, _ := truncateCovered(t, ctx, c.Peers[0], key); upTo != 4 {
		t.Fatalf("truncated to %d, want 4", upTo)
	}

	r.SetRebaseOntoCheckpoint(true)
	ts, err := r.Commit(ctx)
	if !errors.Is(err, core.ErrTentativeDropped) {
		t.Fatalf("commit = (%d, %v), want ErrTentativeDropped", ts, err)
	}
	if ts != 6 {
		t.Fatalf("replica not current after drop: ts %d, want 6", ts)
	}
	if r.Dirty() {
		t.Fatal("dropped ops still pending")
	}
	if r.Text() != w.Text() {
		t.Fatalf("diverged after drop:\n%q\nvs\n%q", r.Text(), w.Text())
	}
}
