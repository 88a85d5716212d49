package kts_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

// announce sends a CheckpointAnnounceReq to the current master of key.
func announce(t *testing.T, c *ringtest.Cluster, key string, ts uint64) *msg.CheckpointAnnounceResp {
	t.Helper()
	resp, err := askMaster(c, c.Peers[0].Node, key, &msg.CheckpointAnnounceReq{Key: key, TS: ts},
		func(m msg.Message) bool { return m.(*msg.CheckpointAnnounceResp).NotMaster })
	if err != nil {
		t.Fatal(err)
	}
	return resp.(*msg.CheckpointAnnounceResp)
}

func TestCheckpointAnnounceMovesPointerForward(t *testing.T) {
	c := newCluster(t, 5)
	key := "ckpt-doc"
	ctx := context.Background()
	for i := uint64(0); i < 4; i++ {
		if r := validate(t, c, 0, key, i, fmt.Sprintf("u#%d", i+1)); r.Status != msg.ValidateOK {
			t.Fatalf("grant %d: %v", i, r.Status)
		}
	}
	// The snapshot must exist before the master accepts its announcement.
	cp := checkpoint.Checkpoint{Key: key, TS: 2, Lines: []string{"state@2"}}
	if _, err := c.Peers[0].Ckpt.Publish(ctx, cp); err != nil {
		t.Fatal(err)
	}
	if ar := announce(t, c, key, 2); !ar.Accepted || ar.CkptTS != 2 {
		t.Fatalf("first announce: %+v", ar)
	}
	// The pointer record is replicated in the DHT.
	if ts, err := c.Peers[1].Ckpt.LatestPointer(ctx, key); err != nil || ts != 2 {
		t.Fatalf("pointer after announce: %d %v", ts, err)
	}
	// A stale (or duplicate) announce is refused but reports the pointer.
	if ar := announce(t, c, key, 2); ar.Accepted || ar.CkptTS != 2 {
		t.Fatalf("stale announce: %+v", ar)
	}
	// An announce for history that was never granted is refused.
	if ar := announce(t, c, key, 99); ar.Accepted {
		t.Fatalf("future announce accepted: %+v", ar)
	}
	// Validation acks piggyback the pointer.
	if r := validate(t, c, 1, key, 4, "u#5"); r.Status != msg.ValidateOK || r.CkptTS != 2 {
		t.Fatalf("ack ckpt: status=%v ckptTS=%d", r.Status, r.CkptTS)
	}
}

func TestAnnounceWithoutSnapshotRefused(t *testing.T) {
	c := newCluster(t, 4)
	key := "no-snap"
	if r := validate(t, c, 0, key, 0, "u#1"); r.Status != msg.ValidateOK {
		t.Fatalf("grant: %v", r.Status)
	}
	// No checkpoint published at ts 1: the master must not move the
	// pointer onto an unretrievable snapshot. The RPC errors remotely, so
	// poll until attempts are exhausted rather than reusing announce().
	ctx, cancel := c.Clk.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node := c.Peers[0].Node
	master, _, err := node.FindSuccessor(ctx, ids.HashTS(key))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Call(ctx, transport.Addr(master.Addr), &msg.CheckpointAnnounceReq{Key: key, TS: 1}); err == nil {
		t.Fatal("announce of unpublished checkpoint succeeded")
	}
	if ts, err := c.Peers[0].Ckpt.LatestPointer(ctx, key); err != nil || ts != 0 {
		t.Fatalf("pointer moved: %d %v", ts, err)
	}
}

// TestLastTSSyncsFromLog reproduces the post-failover under-reporting
// gap: the node answering last_ts has no entry (its replica was lost),
// but the write-once log proves grants happened. The answer must come
// from the log, not the missing replica.
func TestLastTSSyncsFromLog(t *testing.T) {
	c := newCluster(t, 4)
	key := "sync-doc"
	ctx := context.Background()
	// Write the log directly, bypassing the KTS, so no node has an entry.
	for ts := uint64(1); ts <= 3; ts++ {
		rec := p2plog.Record{Key: key, TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := c.Peers[0].Log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := lastTS(t, c, key); got != 3 {
		t.Fatalf("last_ts answered %d, log ends at 3", got)
	}
}

// TestLastTSSyncsPastTruncatedHistory: after checkpoint-gated truncation
// a recovering master cannot walk the log from 1; the checkpoint pointer
// must fast-forward it past the truncated prefix.
func TestLastTSSyncsPastTruncatedHistory(t *testing.T) {
	c := newCluster(t, 5)
	key := "trunc-doc"
	ctx := context.Background()
	for ts := uint64(1); ts <= 6; ts++ {
		rec := p2plog.Record{Key: key, TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := c.Peers[0].Log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	cp := checkpoint.Checkpoint{Key: key, TS: 4, Lines: []string{"state@4"}}
	if _, err := c.Peers[0].Ckpt.Publish(ctx, cp); err != nil {
		t.Fatal(err)
	}
	if err := c.Peers[0].Ckpt.WritePointer(ctx, key, 4); err != nil {
		t.Fatal(err)
	}
	// Truncate as the maintenance engine does: pointer, repair gate,
	// then TruncateTo.
	ptr, err := c.Peers[0].Ckpt.LatestPointer(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, full, err := c.Peers[0].Ckpt.Repair(ctx, key, ptr); err != nil || !full {
		t.Fatalf("checkpoint gate at %d: full=%v err=%v", ptr, full, err)
	}
	if _, err := c.Peers[0].Log.TruncateTo(ctx, key, 0, ptr); err != nil {
		t.Fatal(err)
	}
	if got := lastTS(t, c, key); got != 6 {
		t.Fatalf("last_ts after truncation = %d, want 6", got)
	}
}
