package dht_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/maintain"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

// newSlowMaintCluster seeds an 8-peer ring with checkpoints every
// interval commits, a KeepIntervals margin of one interval, 1 ms links
// and slow chord maintenance: a workload of a few hundred virtual ms
// lands before the FIRST dht maintenance tick, so every floor-derivation
// probe sees the final pointer and the once-per-process hint is not
// burned early on a mid-workload pointer.
func newSlowMaintCluster(t *testing.T, interval uint64) *ringtest.Cluster {
	t.Helper()
	opts := core.Options{
		Chord: chord.Config{
			SuccListLen:     8,
			StabilizeEvery:  2 * time.Second,
			FixFingersEvery: 2 * time.Second,
			CheckPredEvery:  4 * time.Second,
			CallTimeout:     400 * time.Millisecond,
		},
		CheckpointInterval: interval,
		Maintain:           &maintain.Config{TruncateEvery: time.Hour, KeepIntervals: 1},
	}
	c := ringtest.NewVirtualCluster(8, opts, transport.WithLatency(transport.ConstantLatency(time.Millisecond)))
	t.Cleanup(c.Close)
	return c
}

// TestFloorRederivedFromCheckpointPointer exercises the restart
// durability of truncation low-water marks. Floors are in-memory: after
// a full-process restart every peer would come back floorless while its
// stores may still hold (or receive) copies of reclaimed log slots. The
// scenario here IS that state — a ring where no truncation sweep ever
// installed a floor — so the only way any peer can learn the horizon is
// the deriveFloors hint: the replicated checkpoint pointer minus the
// KeepIntervals margin, exactly what a sweep would have told it.
func TestFloorRederivedFromCheckpointPointer(t *testing.T) {
	const (
		interval = 4
		commits  = 8 // two boundaries: pointer 8, margin-adjusted floor 4
	)
	c := newSlowMaintCluster(t, interval)
	peers := c.Peers
	ctx := context.Background()

	key := "restart-floor"
	w := core.NewReplica(peers[0], key, "author")
	for i := 0; i < commits; i++ {
		if err := w.Insert(0, fmt.Sprintf("line %d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	waitFor(t, c, 20*time.Second, "checkpoint pointer at the last boundary", func() bool {
		ptr, err := peers[1].Ckpt.LatestPointer(ctx, key)
		return err == nil && ptr == commits
	})

	// Every peer holding a log slot of the key must re-derive the floor
	// from the pointer: ptr - KeepIntervals*interval = 4.
	holders := func() []*core.Peer {
		var out []*core.Peer
		for _, p := range peers {
			found := false
			for _, e := range append(p.DHT.Store().SnapshotMeta(), p.DHT.ReplicaStore().SnapshotMeta()...) {
				if k, _, ok := ids.ParseLogSlotName(e.Key); ok && k == key {
					found = true
					break
				}
			}
			if found {
				out = append(out, p)
			}
		}
		return out
	}
	waitFor(t, c, 60*time.Second, "floors re-derived on every slot holder", func() bool {
		hs := holders()
		if len(hs) == 0 {
			return false
		}
		for _, p := range hs {
			if p.DHT.Floor(key) != commits-interval {
				return false
			}
		}
		return true
	})

	// Below the re-derived floor, reclaimed history is dead: a read
	// lazily sweeps any straggler slot instead of serving it.
	if ok, _ := peers[2].Log.Exists(ctx, key, 2); ok {
		t.Fatal("ts 2 still readable below the re-derived floor")
	}
	// Inside the KeepIntervals margin the log tail must be intact — the
	// patches a lagging editor's OT still needs.
	for ts := uint64(commits - interval + 1); ts <= commits; ts++ {
		if ok, err := peers[2].Log.Exists(ctx, key, ts); err != nil || !ok {
			t.Fatalf("ts %d inside the safety margin unreadable (ok=%v err=%v)", ts, ok, err)
		}
	}
	// And a cold reader still converges: checkpoint bootstrap + tail.
	r := core.NewReplica(peers[5], key, "reader")
	if err := r.Pull(ctx); err != nil {
		t.Fatalf("cold read after floor re-derivation: %v", err)
	}
	if r.Text() != w.Text() {
		t.Fatalf("reader diverged:\n%q\nvs\n%q", r.Text(), w.Text())
	}
}
