package core

import (
	"context"
	"fmt"
	"sort"

	"p2pltr/internal/ids"
	"p2pltr/internal/store"
)

// snapshotter adapts the user-replica pull path into the maintain.Puller
// the engine's fallback checkpoint producer needs: a fresh maintenance
// replica reconstructs the committed state at exactly ts by bootstrapping
// from the newest covered checkpoint and replaying the log tail — the
// same O(interval) cost a cold join pays.
type snapshotter struct{ peer *Peer }

// SnapshotAt implements maintain.Puller.
func (s snapshotter) SnapshotAt(ctx context.Context, key string, ts uint64) ([]string, error) {
	r := NewReplica(s.peer, key, fmt.Sprintf("maintain:%s", s.peer.Addr()))
	if err := r.PullTo(ctx, ts); err != nil {
		return nil, err
	}
	return r.CommittedLines(), nil
}

// Discover implements maintain.Puller: the document keys evidenced by
// locally stored DHT slots — log records, checkpoint snapshots and pointer
// records, in both the primary and successor-replica stores. A key whose
// whole KTS entry chain died with its master and successor is still named
// by these slots.
func (s snapshotter) Discover() []string {
	seen := make(map[string]struct{})
	collect := func(entries []store.Entry) {
		for _, e := range entries {
			if slot, _, ok := ids.ParseSlot(e.Key); ok {
				seen[slot.Key] = struct{}{}
			}
		}
	}
	collect(s.peer.DHT.Store().SnapshotMeta())
	collect(s.peer.DHT.ReplicaStore().SnapshotMeta())
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
