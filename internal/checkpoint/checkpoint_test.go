package checkpoint_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
)

func newCluster(t *testing.T, n int) *ringtest.Cluster {
	t.Helper()
	c := ringtest.NewVirtualCluster(n, core.Options{})
	t.Cleanup(c.Close)
	return c
}

// dropSlot removes a ring slot from every peer's primary and replica
// store, simulating the slot's replicas all being lost.
func dropSlot(c *ringtest.Cluster, id ids.ID) {
	for _, p := range c.Peers {
		p.DHT.Store().Delete(id)
		p.DHT.ReplicaStore().Delete(id)
	}
}

func TestPublishFetchRoundTrip(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	cp := checkpoint.Checkpoint{Key: "doc", TS: 8, Lines: []string{"a", "b", "c"}}
	stored, err := c.Peers[0].Ckpt.Publish(ctx, cp)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if stored != ids.Replicas {
		t.Fatalf("stored %d replicas, want %d", stored, ids.Replicas)
	}
	for _, p := range c.Peers {
		got, err := p.Ckpt.Fetch(ctx, "doc", 8)
		if err != nil {
			t.Fatalf("fetch from %s: %v", p, err)
		}
		if got.TS != 8 || len(got.Lines) != 3 || got.Lines[2] != "c" {
			t.Fatalf("fetch: %+v", got)
		}
	}
}

func TestPublishIdempotentAndConflict(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	cp := checkpoint.Checkpoint{Key: "doc", TS: 4, Lines: []string{"x"}}
	if _, err := c.Peers[0].Ckpt.Publish(ctx, cp); err != nil {
		t.Fatal(err)
	}
	// Republish of identical content is idempotent.
	if stored, err := c.Peers[1].Ckpt.Publish(ctx, cp); err != nil || stored == 0 {
		t.Fatalf("idempotent republish: stored=%d err=%v", stored, err)
	}
	// A diverged snapshot at the same (key, ts) is refused.
	bad := checkpoint.Checkpoint{Key: "doc", TS: 4, Lines: []string{"DIVERGED"}}
	if _, err := c.Peers[2].Ckpt.Publish(ctx, bad); !errors.Is(err, checkpoint.ErrConflict) {
		t.Fatalf("conflicting publish: %v", err)
	}
	// The occupant is untouched.
	got, err := c.Peers[3].Ckpt.Fetch(ctx, "doc", 4)
	if err != nil || got.Lines[0] != "x" {
		t.Fatalf("occupant after conflict: %+v %v", got, err)
	}
}

func TestFetchMissing(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.Peers[0].Ckpt.Fetch(context.Background(), "doc", 99); !errors.Is(err, checkpoint.ErrMissing) {
		t.Fatalf("err = %v", err)
	}
}

func TestPointerMovesForward(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	s := c.Peers[0].Ckpt
	if ts, err := s.LatestPointer(ctx, "doc"); err != nil || ts != 0 {
		t.Fatalf("fresh pointer: %d %v", ts, err)
	}
	if err := s.WritePointer(ctx, "doc", 8); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePointer(ctx, "doc", 16); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Peers {
		if ts, err := p.Ckpt.LatestPointer(ctx, "doc"); err != nil || ts != 16 {
			t.Fatalf("pointer from %s: %d %v", p, ts, err)
		}
	}
}

func TestFullyReplicatedRepairsHoles(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	s := c.Peers[0].Ckpt
	cp := checkpoint.Checkpoint{Key: "doc", TS: 8, Lines: []string{"a"}}
	if _, err := s.Publish(ctx, cp); err != nil {
		t.Fatal(err)
	}
	// Lose one replica everywhere; the probe must restore it.
	dropSlot(c, ids.CheckpointSlot("doc", 8).Pos(0))
	repaired, full, err := s.Repair(ctx, "doc", 8)
	if err != nil || !full || repaired != 1 {
		t.Fatalf("repair: repaired=%d full=%v err=%v", repaired, full, err)
	}
	// The repaired slot is readable again at its own position.
	v, found, err := c.Peers[1].Client.GetID(ctx, ids.CheckpointSlot("doc", 8).Pos(0))
	if err != nil || !found || len(v) == 0 {
		t.Fatalf("repaired slot: found=%v err=%v", found, err)
	}
}

func publishLog(t *testing.T, c *ringtest.Cluster, key string, n uint64) {
	t.Helper()
	ctx := context.Background()
	for ts := uint64(1); ts <= n; ts++ {
		rec := p2plog.Record{Key: key, TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := c.Peers[0].Log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTruncateLogReclaimsCoveredPrefix walks the maintenance engine's
// truncation path by hand: resolve the pointer, repair the checkpoint it
// names, and only on full replication truncate the log up to it.
func TestTruncateLogReclaimsCoveredPrefix(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	s := c.Peers[0].Ckpt
	log := c.Peers[0].Log
	publishLog(t, c, "doc", 10)
	cp := checkpoint.Checkpoint{Key: "doc", TS: 8, Lines: []string{"state@8"}}
	if _, err := s.Publish(ctx, cp); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePointer(ctx, "doc", 8); err != nil {
		t.Fatal(err)
	}
	upTo, err := s.LatestPointer(ctx, "doc")
	if err != nil || upTo != 8 {
		t.Fatalf("pointer: %d %v", upTo, err)
	}
	if _, full, err := s.Repair(ctx, "doc", upTo); err != nil || !full {
		t.Fatalf("repair gate: full=%v err=%v", full, err)
	}
	deleted, err := log.TruncateTo(ctx, "doc", 0, upTo)
	if err != nil || deleted == 0 {
		t.Fatalf("truncate: deleted=%d err=%v", deleted, err)
	}
	// Covered prefix is gone; the live tail survives.
	if _, err := log.Fetch(ctx, "doc", 3); !errors.Is(err, p2plog.ErrMissing) {
		t.Fatalf("truncated slot still present: %v", err)
	}
	if recs, err := log.FetchRange(ctx, "doc", 8, 10); err != nil || len(recs) != 2 {
		t.Fatalf("tail after truncate: %d recs, %v", len(recs), err)
	}
}

func TestShouldCheckpoint(t *testing.T) {
	cases := []struct {
		interval, ts uint64
		want         bool
	}{
		{0, 64, false}, {8, 0, false}, {8, 8, true}, {8, 9, false}, {8, 16, true}, {1, 5, true},
	}
	for _, tc := range cases {
		if got := checkpoint.ShouldCheckpoint(tc.interval, tc.ts); got != tc.want {
			t.Errorf("ShouldCheckpoint(%d, %d) = %v", tc.interval, tc.ts, got)
		}
	}
}
