// Package checkpoint implements the snapshot layer of P2P-LTR: periodic,
// DHT-resident checkpoints of committed document state that bound the
// catch-up cost of joining (or rejoining) replicas and let Log-Peers
// reclaim storage.
//
// Every Interval committed patches, the replica whose patch was validated
// at the boundary timestamp ts (ts ≡ 0 mod Interval) is the checkpoint
// producer — the elected author f(key, ts) is "the author of the patch
// committed at ts", which is unique per timestamp thanks to total order,
// so exactly one site does the work and no coordination is needed. The
// producer serializes its committed document at ts and publishes it
// write-once at the replicated ring positions hc1(k,ts) … hcn(k,ts) of
// the Hc hash family (a sibling of the P2P-Log's Hr), then announces the
// checkpoint to the key's KTS master. The master — which serializes all
// per-key decisions — advances the replicated "latest checkpoint pointer"
// record in timestamp order and piggybacks it on every validation and
// last_ts ack, so user peers learn of newer checkpoints for free.
//
// A replica that is behind bootstraps from the newest reachable
// checkpoint plus the log tail: catch-up is O(Interval), not O(history).
// Once a checkpoint is fully replicated, the log prefix it covers may be
// truncated: the maintenance engine (internal/maintain) runs Repair and
// only on its full-replication verdict calls p2plog.Log.TruncateTo, so
// the write-once tail the Master-key crash-recovery walks is never cut
// out from under it. The truncation floor F that sweep leaves at the
// Log-Peers also reclaims every checkpoint of the key older than F
// (bootstrapping from one would need the log records the floor removed),
// so a key keeps the checkpoint at F, the newer ones and the log above F:
// storage grows with the document, not with its history.
package checkpoint

import (
	"context"
	"errors"
	"fmt"

	"p2pltr/internal/dht"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
)

// ErrMissing reports that no replica of a checkpoint could be found.
var ErrMissing = errors.New("checkpoint: not found at any replica")

// ErrConflict reports a checkpoint slot occupied by different content.
// Committed state at a timestamp is deterministic across correct
// replicas, so a conflict indicates a diverged (buggy or byzantine)
// producer; the occupant stays authoritative.
var ErrConflict = dht.ErrConflict

// Checkpoint is one published snapshot: the committed document state of
// Key immediately after integrating the patch with timestamp TS.
type Checkpoint struct {
	Key   string
	TS    uint64
	Lines []string
}

// Pointer is the mutable latest-checkpoint record replicated at the
// ids.PointerSlot positions of a key.
type Pointer struct {
	Key string
	TS  uint64
}

// ShouldCheckpoint reports whether the patch committed at ts is a
// checkpoint boundary for the given interval (0 disables checkpointing).
func ShouldCheckpoint(interval, ts uint64) bool {
	return interval > 0 && ts > 0 && ts%interval == 0
}

// The leading bytes of a stored checkpoint and pointer (see msg.Marshal).
const (
	checkpointFormat = 0xC1
	pointerFormat    = 0xC2
)

func (cp *Checkpoint) wire(c *msg.Coder) {
	c.String(&cp.Key)
	c.Uint64(&cp.TS)
	msg.Slice(c, &cp.Lines, 1, msg.StringElem)
}

func (p *Pointer) wire(c *msg.Coder) { c.String(&p.Key); c.Uint64(&p.TS) }

func encode(format byte, wire func(*msg.Coder)) ([]byte, error) {
	b, err := msg.Marshal(format, wire)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return b, nil
}

func decodeCheckpoint(b []byte) (Checkpoint, error) {
	var cp Checkpoint
	if err := msg.Unmarshal(b, checkpointFormat, cp.wire); err != nil {
		return Checkpoint{}, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return cp, nil
}

func decodePointer(b []byte) (Pointer, error) {
	var p Pointer
	if err := msg.Unmarshal(b, pointerFormat, p.wire); err != nil {
		return Pointer{}, fmt.Errorf("checkpoint: decode pointer: %w", err)
	}
	return p, nil
}

// Store reads and writes checkpoints and pointer records through a DHT
// client, n = ids.Replicas copies of each. It is the checkpoint analogue
// of p2plog.Log.
type Store struct {
	c *dht.Client
}

// NewStore returns a checkpoint view over c.
func NewStore(c *dht.Client) *Store { return &Store{c: c} }

// Publish writes the snapshot to all n replica slots, write-once, and
// returns how many hold it. At least one replica must accept; a slot
// occupied by a different snapshot aborts with ErrConflict.
func (s *Store) Publish(ctx context.Context, cp Checkpoint) (stored int, err error) {
	enc, err := encode(checkpointFormat, cp.wire)
	if err != nil {
		return 0, err
	}
	return s.c.PutSlots(ctx, ids.CheckpointSlot(cp.Key, cp.TS), enc, true, nil)
}

// Fetch retrieves the checkpoint of key taken at ts, falling back across
// the n replicas like the P2P-Log retrieval does.
func (s *Store) Fetch(ctx context.Context, key string, ts uint64) (Checkpoint, error) {
	var lastErr error
	slot := ids.CheckpointSlot(key, ts)
	for i := 0; i < ids.Replicas; i++ {
		v, found, err := s.c.GetID(ctx, slot.Pos(i))
		if err != nil {
			lastErr = err
			continue
		}
		if !found {
			continue
		}
		cp, err := decodeCheckpoint(v)
		if err != nil {
			lastErr = err
			continue
		}
		return cp, nil
	}
	if lastErr != nil {
		return Checkpoint{}, fmt.Errorf("%w (key=%s ts=%d): %v", ErrMissing, key, ts, lastErr)
	}
	return Checkpoint{}, fmt.Errorf("%w (key=%s ts=%d)", ErrMissing, key, ts)
}

// Repair probes every replica slot of (key, ts) and re-publishes the
// ones observed empty from a found copy — the anti-entropy pass that
// restores |Hc| after Log-Peer churn eroded it. It returns how many slots
// it restored this call and whether the checkpoint is now fully
// replicated.
func (s *Store) Repair(ctx context.Context, key string, ts uint64) (repaired int, full bool, err error) {
	var (
		enc     []byte
		missing []int
	)
	slot := ids.CheckpointSlot(key, ts)
	for i := 0; i < ids.Replicas; i++ {
		v, found, err := s.c.GetID(ctx, slot.Pos(i))
		if err != nil {
			return 0, false, err
		}
		if !found {
			missing = append(missing, i)
			continue
		}
		if enc == nil {
			enc = v
		}
	}
	if enc == nil {
		return 0, false, fmt.Errorf("%w (key=%s ts=%d)", ErrMissing, key, ts)
	}
	for _, i := range missing {
		ok, _, err := s.c.PutID(ctx, slot.Pos(i), slot.Name(i), enc, true)
		if err != nil || !ok {
			return repaired, false, err
		}
		repaired++
	}
	return repaired, true, nil
}

// WritePointer replicates the latest-checkpoint pointer of key at the n
// pointer positions. Pointer slots are mutable; ordering is provided by
// the caller (the KTS master serializes per-key updates, so pointers are
// only ever overwritten in increasing timestamp order).
func (s *Store) WritePointer(ctx context.Context, key string, ts uint64) error {
	ptr := Pointer{Key: key, TS: ts}
	enc, err := encode(pointerFormat, ptr.wire)
	if err != nil {
		return err
	}
	_, err = s.c.PutSlots(ctx, ids.PointerSlot(key), enc, false, nil)
	return err
}

// LatestPointer returns the newest checkpoint timestamp recorded for key
// across the pointer replicas (0 when no checkpoint exists yet). Taking
// the maximum tolerates stale replicas left behind by a crashed writer.
func (s *Store) LatestPointer(ctx context.Context, key string) (uint64, error) {
	var (
		best    uint64
		lastErr error
		found   bool
	)
	slot := ids.PointerSlot(key)
	for i := 0; i < ids.Replicas; i++ {
		v, ok, err := s.c.GetID(ctx, slot.Pos(i))
		if err != nil {
			lastErr = err
			continue
		}
		if !ok {
			continue
		}
		p, err := decodePointer(v)
		if err != nil {
			lastErr = err
			continue
		}
		found = true
		if p.TS > best {
			best = p.TS
		}
	}
	if !found && lastErr != nil {
		return 0, fmt.Errorf("checkpoint: pointer lookup %s: %w", key, lastErr)
	}
	return best, nil
}

// ParseSlotName is ids.ParseSlot restricted to checkpoint slots: it
// returns the document key and timestamp of a checkpoint slot name, and
// ok=false for names of any other shape.
func ParseSlotName(name string) (key string, ts uint64, ok bool) {
	s, _, ok := ids.ParseSlot(name)
	if !ok || s.Kind != ids.KindCheckpoint {
		return "", 0, false
	}
	return s.Key, s.TS, true
}
