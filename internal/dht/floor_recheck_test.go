package dht_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/dht"
	"p2pltr/internal/ids"
)

// TestFloorRecheckTracksAdvancingPointer closes the once-per-process
// window: the first deriveFloors pass records a floor from the
// checkpoint pointer, but under the old semantics that consult was
// never repeated, so history committed afterwards stayed protected by a
// stale floor forever (until the next restart). With truncation sweeps
// disabled — the restart state, where the hint is the ONLY floor source
// — the floor must follow the pointer across a second boundary reached
// after the first derivation already happened.
func TestFloorRecheckTracksAdvancingPointer(t *testing.T) {
	const (
		interval = 4
		firstTS  = 8  // pointer 8 -> derived floor 4
		finalTS  = 16 // pointer 16 -> re-derived floor 12
	)
	c := newSlowMaintCluster(t, interval)
	peers := c.Peers
	ctx := context.Background()

	key := "recheck-floor"
	w := core.NewReplica(peers[0], key, "author")
	commitTo := func(n int) {
		for w.CommittedTS() < uint64(n) {
			if err := w.Insert(0, fmt.Sprintf("line %d", w.CommittedTS())); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Commit(ctx); err != nil {
				t.Fatalf("commit at ts %d: %v", w.CommittedTS(), err)
			}
		}
	}
	holders := func() []*core.Peer {
		var out []*core.Peer
		for _, p := range peers {
			for _, e := range append(p.DHT.Store().SnapshotMeta(), p.DHT.ReplicaStore().SnapshotMeta()...) {
				if k, _, ok := ids.ParseLogSlotName(e.Key); ok && k == key {
					out = append(out, p)
					break
				}
			}
		}
		return out
	}
	floorsAt := func(want uint64) func() bool {
		return func() bool {
			hs := holders()
			if len(hs) == 0 {
				return false
			}
			for _, p := range hs {
				if p.DHT.Floor(key) != want {
					return false
				}
			}
			return true
		}
	}

	// First boundary pair: the initial derivation installs ptr-margin.
	commitTo(firstTS)
	waitFor(t, c, 60*time.Second, "first floor derived on every slot holder",
		floorsAt(firstTS-interval))

	// Advance the pointer AFTER that first consult. Under once-per-process
	// derivation every holder has burned its check and the floor would
	// stay at 4 forever; the periodic recheck must raise it to 12 once
	// the virtual clock has run past one recheck period.
	commitTo(finalTS)
	waitFor(t, c, 60*time.Second, "checkpoint pointer at the new boundary", func() bool {
		ptr, err := peers[1].Ckpt.LatestPointer(ctx, key)
		return err == nil && ptr == finalTS
	})
	waitFor(t, c, dht.DefaultFloorRecheck+60*time.Second, "floor re-derived after pointer advance",
		floorsAt(finalTS-interval))

	// Below the raised floor, history is dead; inside the margin the log
	// tail a lagging editor still needs must be intact.
	if ok, _ := peers[2].Log.Exists(ctx, key, firstTS-interval+1); ok {
		t.Fatalf("ts %d still readable below the re-derived floor", firstTS-interval+1)
	}
	for ts := uint64(finalTS - interval + 1); ts <= finalTS; ts++ {
		if ok, err := peers[2].Log.Exists(ctx, key, ts); err != nil || !ok {
			t.Fatalf("ts %d inside the safety margin unreadable (ok=%v err=%v)", ts, ok, err)
		}
	}
	// And a cold reader still converges: checkpoint bootstrap + tail.
	r := core.NewReplica(peers[5], key, "reader")
	if err := r.Pull(ctx); err != nil {
		t.Fatalf("cold read after floor recheck: %v", err)
	}
	if r.Text() != w.Text() {
		t.Fatalf("reader diverged:\n%q\nvs\n%q", r.Text(), w.Text())
	}
}
