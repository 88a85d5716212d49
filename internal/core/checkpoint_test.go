package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
)

func newCheckpointingCluster(t *testing.T, n int, interval uint64) *ringtest.Cluster {
	t.Helper()
	return newClusterWith(t, n, core.Options{CheckpointInterval: interval})
}

// TestColdJoinBootstrapsFromCheckpoint is the subsystem's headline
// property: a replica joining at timestamp N fetches O(Interval)
// patches, not N — it installs the newest checkpoint and replays only
// the log tail.
func TestColdJoinBootstrapsFromCheckpoint(t *testing.T) {
	const interval = 4
	c := newCheckpointingCluster(t, 5, interval)
	ctx := ctxT(t, c, 60*time.Second)
	alice := core.NewReplica(c.Peers[0], "doc", "alice")
	const patches = 10
	for i := 0; i < patches; i++ {
		if err := alice.Insert(0, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if pub, _ := alice.CheckpointStats(); pub != patches/interval {
		t.Fatalf("alice published %d checkpoints, want %d", pub, patches/interval)
	}
	if alice.KnownCheckpointTS() != 8 {
		t.Fatalf("alice's known checkpoint = %d, want 8", alice.KnownCheckpointTS())
	}

	bob := core.NewReplica(c.Peers[3], "doc", "bob")
	if err := bob.Pull(ctx); err != nil {
		t.Fatalf("cold pull: %v", err)
	}
	if bob.Text() != alice.Text() {
		t.Fatalf("divergence: %q vs %q", bob.Text(), alice.Text())
	}
	if bob.CommittedTS() != patches {
		t.Fatalf("bob at ts %d, want %d", bob.CommittedTS(), patches)
	}
	if _, boots := bob.CheckpointStats(); boots != 1 {
		t.Fatalf("bob bootstrapped %d times, want 1", boots)
	}
	if _, retrieved := bob.Stats(); retrieved > interval {
		t.Fatalf("bob fetched %d patches, want <= %d (checkpoint at 8, head at 10)", retrieved, interval)
	}
}

// TestColdJoinAfterTruncation: once the covered prefix is reclaimed, the
// checkpoint is the only way to catch up — and it must suffice.
func TestColdJoinAfterTruncation(t *testing.T) {
	const interval = 4
	c := newCheckpointingCluster(t, 5, interval)
	ctx := ctxT(t, c, 60*time.Second)
	alice := core.NewReplica(c.Peers[0], "doc", "alice")
	for i := 0; i < 10; i++ {
		if err := alice.Insert(0, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	upTo, deleted, err := c.Peers[1].Ckpt.TruncateLog(ctx, c.Peers[1].Log, "doc")
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if upTo != 8 || deleted == 0 {
		t.Fatalf("truncate upTo=%d deleted=%d", upTo, deleted)
	}
	if _, err := c.Peers[2].Log.Fetch(ctx, "doc", 1); !errors.Is(err, p2plog.ErrMissing) {
		t.Fatalf("prefix not reclaimed: %v", err)
	}

	carol := core.NewReplica(c.Peers[4], "doc", "carol")
	if err := carol.Pull(ctx); err != nil {
		t.Fatalf("cold pull after truncation: %v", err)
	}
	if carol.Text() != alice.Text() {
		t.Fatalf("divergence after truncation: %q vs %q", carol.Text(), alice.Text())
	}
	// And the live protocol still works on the truncated document.
	if err := carol.Insert(0, "post-truncate"); err != nil {
		t.Fatal(err)
	}
	if ts, err := carol.Commit(ctx); err != nil || ts != 11 {
		t.Fatalf("commit after truncation: ts=%d err=%v", ts, err)
	}
}

// TestDirtyReplicaDoesNotJumpCheckpoints: tentative edits pin a replica
// to patch-by-patch integration (OT needs the intermediate patches), so
// a checkpoint must never replace state under unvalidated edits.
func TestDirtyReplicaDoesNotJumpCheckpoints(t *testing.T) {
	const interval = 4
	c := newCheckpointingCluster(t, 5, interval)
	ctx := ctxT(t, c, 60*time.Second)
	alice := core.NewReplica(c.Peers[0], "doc", "alice")
	bob := core.NewReplica(c.Peers[1], "doc", "bob")
	if err := bob.Insert(0, "bob's draft"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := alice.Insert(0, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Bob is dirty: Pull must integrate every patch, not bootstrap.
	if err := bob.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if _, boots := bob.CheckpointStats(); boots != 0 {
		t.Fatalf("dirty replica bootstrapped from a checkpoint")
	}
	if _, retrieved := bob.Stats(); retrieved != 8 {
		t.Fatalf("dirty replica retrieved %d patches, want 8", retrieved)
	}
	if !bob.Dirty() {
		t.Fatal("tentative edit lost")
	}
	if ts, err := bob.Commit(ctx); err != nil || ts != 9 {
		t.Fatalf("dirty commit: ts=%d err=%v", ts, err)
	}
}
