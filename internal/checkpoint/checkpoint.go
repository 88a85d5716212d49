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
// truncated (p2plog.Truncate); TruncateLog gates truncation on full
// replication so the write-once tail the Master-key crash-recovery walks
// is never cut out from under it.
package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"p2pltr/internal/dht"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
)

// DefaultReplicas is |Hc| when none is configured; it mirrors the
// P2P-Log's replication factor so checkpoints survive the same crash
// patterns the log does.
const DefaultReplicas = 3

// DefaultInterval is the checkpoint period in committed patches used when
// a caller enables checkpointing without choosing one.
const DefaultInterval = 64

// ErrMissing reports that no replica of a checkpoint could be found.
var ErrMissing = errors.New("checkpoint: not found at any replica")

// ErrConflict reports a checkpoint slot occupied by different content.
// Committed state at a timestamp is deterministic across correct
// replicas, so a conflict indicates a diverged (buggy or byzantine)
// producer; the occupant stays authoritative.
var ErrConflict = errors.New("checkpoint: slot already holds a different snapshot")

// Checkpoint is one published snapshot: the committed document state of
// Key immediately after integrating the patch with timestamp TS.
type Checkpoint struct {
	Key   string
	TS    uint64
	Lines []string
}

// Pointer is the mutable latest-checkpoint record replicated at the
// CheckpointPtrHash positions of a key.
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
// client. It is the checkpoint analogue of p2plog.Log.
type Store struct {
	c        *dht.Client
	replicas int
}

// NewStore returns a checkpoint view with replication factor n = |Hc|
// (DefaultReplicas if n <= 0).
func NewStore(c *dht.Client, replicas int) *Store {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Store{c: c, replicas: replicas}
}

// Replicas returns the replication factor n.
func (s *Store) Replicas() int { return s.replicas }

// Publish writes the snapshot to all n replica slots, write-once. At
// least one replica must accept; a slot occupied by a different snapshot
// aborts with ErrConflict.
func (s *Store) Publish(ctx context.Context, cp Checkpoint) (stored int, err error) {
	enc, err := encode(checkpointFormat, cp.wire)
	if err != nil {
		return 0, err
	}
	var lastErr error
	for i := 0; i < s.replicas; i++ {
		slot := ids.CheckpointHash(i, cp.Key, cp.TS)
		ok, existing, perr := s.c.PutID(ctx, slot, slotKey(cp.Key, cp.TS, i), enc, true)
		if perr != nil {
			lastErr = perr
			continue
		}
		if ok {
			stored++
			continue
		}
		if bytes.Equal(existing, enc) {
			stored++ // idempotent republish
			continue
		}
		return stored, fmt.Errorf("%w: slot %d of (%s,%d)", ErrConflict, i, cp.Key, cp.TS)
	}
	if stored == 0 {
		return 0, fmt.Errorf("checkpoint: publish (%s,%d): no replica reachable: %w", cp.Key, cp.TS, lastErr)
	}
	return stored, nil
}

// Fetch retrieves the checkpoint of key taken at ts, falling back across
// the n replicas like the P2P-Log retrieval does.
func (s *Store) Fetch(ctx context.Context, key string, ts uint64) (Checkpoint, error) {
	var lastErr error
	for i := 0; i < s.replicas; i++ {
		slot := ids.CheckpointHash(i, key, ts)
		v, found, err := s.c.GetID(ctx, slot)
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
	for i := 0; i < s.replicas; i++ {
		slot := ids.CheckpointHash(i, key, ts)
		v, found, err := s.c.GetID(ctx, slot)
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
		slot := ids.CheckpointHash(i, key, ts)
		ok, _, err := s.c.PutID(ctx, slot, slotKey(key, ts, i), enc, true)
		if err != nil || !ok {
			return repaired, false, err
		}
		repaired++
	}
	return repaired, true, nil
}

// FullyReplicated repairs (key, ts) and reports whether all n replicas
// now hold the snapshot. It is the gate log truncation stands behind:
// only history covered by a fully-replicated checkpoint may go.
func (s *Store) FullyReplicated(ctx context.Context, key string, ts uint64) (bool, error) {
	_, full, err := s.Repair(ctx, key, ts)
	return full, err
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
	var lastErr error
	stored := 0
	for i := 0; i < s.replicas; i++ {
		slot := ids.CheckpointPtrHash(i, key)
		if _, _, err := s.c.PutID(ctx, slot, ptrKey(key, i), enc, false); err != nil {
			lastErr = err
			continue
		}
		stored++
	}
	if stored == 0 {
		return fmt.Errorf("checkpoint: pointer (%s,%d): no replica reachable: %w", key, ts, lastErr)
	}
	return nil
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
	for i := 0; i < s.replicas; i++ {
		slot := ids.CheckpointPtrHash(i, key)
		v, ok, err := s.c.GetID(ctx, slot)
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

// TruncateLog reclaims the log prefix of key covered by its latest
// checkpoint: it resolves the pointer, verifies (and repairs to) full
// replication of that checkpoint, and only then truncates the P2P-Log up
// to the checkpoint timestamp. It returns the covered timestamp (0 when
// nothing was truncated) and the number of slot replicas removed.
//
// The truncation also declares the checkpoint timestamp the key's
// truncation low-water mark on every contacted Log-Peer (see
// p2plog.TruncateTo): stale successor copies of the reclaimed prefix
// can then never be promoted back, which is what makes cutting
// write-once history under a churning ring safe rather than merely
// probabilistic.
func (s *Store) TruncateLog(ctx context.Context, log *p2plog.Log, key string) (upTo uint64, deleted int, err error) {
	ptr, err := s.LatestPointer(ctx, key)
	if err != nil {
		return 0, 0, err
	}
	if ptr == 0 {
		return 0, 0, nil
	}
	full, err := s.FullyReplicated(ctx, key, ptr)
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: truncate gate for (%s,%d): %w", key, ptr, err)
	}
	if !full {
		return 0, 0, nil
	}
	deleted, err = log.Truncate(ctx, key, ptr)
	if err != nil {
		return 0, deleted, err
	}
	return ptr, deleted, nil
}

func slotKey(key string, ts uint64, replica int) string {
	return fmt.Sprintf("ckpt/%s/%d/r%d", key, ts, replica)
}

func ptrKey(key string, replica int) string {
	return fmt.Sprintf("ckptptr/%s/r%d", key, replica)
}

// ParseSlotName decodes a checkpoint slot name ("ckpt/<key>/<ts>/r<i>")
// back into its document key and timestamp, reporting ok=false for names
// of any other shape. Keys may themselves contain '/', so the timestamp
// and replica components are taken from the right. The maintenance
// discovery scan uses it to recover document keys from locally stored
// slots.
func ParseSlotName(name string) (key string, ts uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "ckpt/")
	if !found {
		return "", 0, false
	}
	i := strings.LastIndexByte(rest, '/')
	if i < 0 || !strings.HasPrefix(rest[i+1:], "r") {
		return "", 0, false
	}
	rest = rest[:i]
	j := strings.LastIndexByte(rest, '/')
	if j < 0 {
		return "", 0, false
	}
	ts, err := strconv.ParseUint(rest[j+1:], 10, 64)
	if err != nil || rest[:j] == "" {
		return "", 0, false
	}
	return rest[:j], ts, true
}

// ParsePtrName decodes a checkpoint pointer record name
// ("ckptptr/<key>/r<i>") back into its document key, reporting ok=false
// for names of any other shape.
func ParsePtrName(name string) (key string, ok bool) {
	rest, found := strings.CutPrefix(name, "ckptptr/")
	if !found {
		return "", false
	}
	i := strings.LastIndexByte(rest, '/')
	if i < 0 || !strings.HasPrefix(rest[i+1:], "r") || rest[:i] == "" {
		return "", false
	}
	if _, err := strconv.Atoi(rest[i+2:]); err != nil {
		return "", false
	}
	return rest[:i], true
}
