package maintain_test

import (
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/maintain"
)

// TestCheckpointStorageStaysFlat: a document's DHT storage grows with the
// document, not with its history. With maintenance on, the truncation
// floor reclaims the log prefix and every checkpoint older than itself,
// so the checkpoint slots left across every peer's primary and replica
// stores stay under one bound after N commits and after 2N: the
// KeepIntervals margin plus the checkpoint at the floor and one being
// produced, each in ids.Replicas slots held twice (primary and successor
// copy).
func TestCheckpointStorageStaysFlat(t *testing.T) {
	const (
		interval = 8
		keep     = 1
		n        = 6 * interval
		bound    = (keep + 2) * ids.Replicas * 2
	)
	cfg := maintain.Config{TruncateEvery: time.Millisecond, KeepIntervals: keep}
	c := newMaintCluster(t, 8, interval, cfg)
	key := "flat"
	w := core.NewReplica(c.Peers[0], key, "author")

	ckptSlots := func() int {
		slots := 0
		for _, p := range c.Live() {
			for _, e := range append(p.DHT.Store().SnapshotMeta(), p.DHT.ReplicaStore().SnapshotMeta()...) {
				if s, _, ok := ids.ParseSlot(e.Key); ok && s.Kind == ids.KindCheckpoint && s.Key == key {
					slots++
				}
			}
		}
		return slots
	}
	// settle waits until the pointer covers last and every peer holds the
	// floor it implies, then lets a few more maintenance ticks run the
	// lazy sweeps of what the floor reclaims.
	settle := func(last uint64) int {
		t.Helper()
		waitPointer(t, c, key, last)
		floor := cfg.Horizon(last, interval)
		waitFor(t, c, 20*time.Second, "every peer to learn the floor", func() bool {
			for _, p := range c.Live() {
				if p.DHT.Floor(key) < floor {
					return false
				}
			}
			return true
		})
		sleep(c, time.Second)
		return ckptSlots()
	}

	first := settle(commit(t, w, n))
	second := settle(commit(t, w, n))
	t.Logf("checkpoint slots after %d commits: %d, after %d: %d (bound %d)", n, first, 2*n, second, bound)
	if first > bound || second > bound {
		t.Fatalf("checkpoint slots grow with history: %d after %d commits, %d after %d; want at most %d each",
			first, n, second, 2*n, bound)
	}
}
