// Package p2plog implements the paper's P2P-Log: the highly available,
// DHT-resident log of timestamped patches.
//
// A validated patch on document key k with timestamp ts is replicated at n
// Log-Peers, the peers responsible for the positions h1(k,ts) … hn(k,ts)
// of the pairwise-independent replication hash family Hr (the paper's
// sendToPublish: Put(h1(key+ts),Patch) … Put(hn(key+ts),Patch)).
//
// Log slots are write-once. Retrieval walks timestamps in increasing
// order, falling back across the n replicas of each slot, so readers
// always observe the committed patch sequence in total order — the
// property P2P-LTR's eventual consistency rests on.
package p2plog

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"p2pltr/internal/dht"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/vclock"
)

// DefaultReplicas is the size of Hr used when none is configured.
const DefaultReplicas = 3

// ErrConflict reports that a slot already holds a different patch: a
// previous Master-key incarnation published this timestamp. The caller
// (the KTS) treats the existing patch as the committed one.
var ErrConflict = errors.New("p2plog: slot already holds a different patch")

// ErrMissing reports that no replica of a slot could be found; with live
// Log-Peers this means the timestamp was never published.
var ErrMissing = errors.New("p2plog: patch not found at any replica")

// Record is one committed log entry.
type Record struct {
	Key     string
	TS      uint64
	PatchID string
	Patch   []byte
}

// recordFormat is the leading byte of a stored record (see msg.Marshal).
const recordFormat = 0xB1

func (r *Record) wire(c *msg.Coder) {
	c.String(&r.Key)
	c.Uint64(&r.TS)
	c.String(&r.PatchID)
	c.Bytes(&r.Patch)
}

// Log reads and writes the P2P-Log through a DHT client.
type Log struct {
	c        *dht.Client
	replicas int
	clock    vclock.Clock
}

// New returns a log view with the given replication factor n = |Hr|
// (DefaultReplicas if n <= 0). Every read repairs: a fetch that finds the
// record at some replica re-publishes it to replicas that are missing it,
// restoring the replication degree after Log-Peer crashes and re-homing
// slots onto the peers that currently own their positions. The
// windowed-retrieval worker goroutines run on clk, so virtual-time
// simulations can account for them.
func New(c *dht.Client, replicas int, clk vclock.Clock) *Log {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Log{c: c, replicas: replicas, clock: clk}
}

// Replicas returns the replication factor n.
func (l *Log) Replicas() int { return l.replicas }

// encodeRecord produces the canonical slot content. The codec encodes
// one record to exactly one byte string, which makes idempotent republish
// compare equal byte-wise.
func encodeRecord(r Record) ([]byte, error) {
	b, err := msg.Marshal(recordFormat, r.wire)
	if err != nil {
		return nil, fmt.Errorf("p2plog: encode record: %w", err)
	}
	return b, nil
}

func decodeRecord(b []byte) (Record, error) {
	var r Record
	if err := msg.Unmarshal(b, recordFormat, r.wire); err != nil {
		return Record{}, fmt.Errorf("p2plog: decode record: %w", err)
	}
	return r, nil
}

// PublishResult describes the outcome of one Publish.
type PublishResult struct {
	// StoredReplicas counts slots this call wrote or found identical.
	StoredReplicas int
	// Conflict, when non-nil, is the differing record found occupying at
	// least one slot.
	Conflict *Record
}

// Publish implements sendToPublish for one (key, ts): it writes the patch
// to all n replica slots. At least one replica must accept for the publish
// to count; a slot occupied by a different patch aborts with ErrConflict
// and returns the occupant so the master can converge on it.
func (l *Log) Publish(ctx context.Context, rec Record) (PublishResult, error) {
	enc, err := encodeRecord(rec)
	if err != nil {
		return PublishResult{}, err
	}
	var res PublishResult
	var lastErr error
	for i := 0; i < l.replicas; i++ {
		slot := ids.ReplicaHash(i, rec.Key, rec.TS)
		stored, existing, err := l.c.PutID(ctx, slot, logSlotKey(rec.Key, rec.TS, i), enc, true)
		if err != nil {
			lastErr = err
			continue // unavailable Log-Peer; other replicas provide availability
		}
		if stored {
			res.StoredReplicas++
			continue
		}
		occupant, derr := decodeRecord(existing)
		if derr != nil {
			lastErr = derr
			continue
		}
		if occupant.PatchID == rec.PatchID {
			res.StoredReplicas++ // same patch, counted as replicated
			continue
		}
		res.Conflict = &occupant
		return res, fmt.Errorf("%w: slot %d of (%s,%d) holds patch %s", ErrConflict, i, rec.Key, rec.TS, occupant.PatchID)
	}
	if res.StoredReplicas == 0 {
		return res, fmt.Errorf("p2plog: publish (%s,%d): no replica reachable: %w", rec.Key, rec.TS, lastErr)
	}
	return res, nil
}

// Fetch retrieves the committed patch at (key, ts). It probes every
// replica slot and restores the ones observed missing from the found
// copy, so the replication degree heals on the read path.
func (l *Log) Fetch(ctx context.Context, key string, ts uint64) (Record, error) {
	var (
		lastErr error
		missing []int
		rec     Record
		enc     []byte
		have    bool
	)
	for i := 0; i < l.replicas; i++ {
		slot := ids.ReplicaHash(i, key, ts)
		if have {
			// Only probing for holes to repair from here on.
			if _, found, err := l.c.GetID(ctx, slot); err == nil && !found {
				missing = append(missing, i)
			}
			continue
		}
		v, found, err := l.c.GetID(ctx, slot)
		if err != nil {
			lastErr = err
			continue
		}
		if !found {
			missing = append(missing, i)
			continue
		}
		r, err := decodeRecord(v)
		if err != nil {
			lastErr = err
			continue
		}
		rec, enc, have = r, v, true
	}
	if !have {
		if lastErr != nil {
			return Record{}, fmt.Errorf("%w (key=%s ts=%d): %v", ErrMissing, key, ts, lastErr)
		}
		return Record{}, fmt.Errorf("%w (key=%s ts=%d)", ErrMissing, key, ts)
	}
	if len(missing) > 0 {
		l.repair(ctx, rec, enc, missing)
	}
	return rec, nil
}

// Await reads (key, ts) at its first replica slot and, while that slot is
// empty, waits there up to wait: the slot's Log-Peer holds the read and
// answers the moment the publish lands. Publish writes slot 0 first, so a
// reader parked at the end of the log gets the next record as soon as it
// exists — before the master's ack reaches the committer — without
// polling. found=false means nothing arrived in time. It never falls back
// across replicas and never repairs: a reader that wants the record
// however it can be had uses Fetch.
func (l *Log) Await(ctx context.Context, key string, ts uint64, wait time.Duration) (rec Record, found bool, err error) {
	v, found, err := l.c.AwaitID(ctx, ids.ReplicaHash(0, key, ts), wait)
	if err != nil || !found {
		return Record{}, false, err
	}
	if rec, err = decodeRecord(v); err != nil {
		return Record{}, false, err
	}
	return rec, true, nil
}

// repair best-effort re-publishes an encoded record to the replica slots
// that were observed empty.
func (l *Log) repair(ctx context.Context, rec Record, enc []byte, missing []int) {
	for _, i := range missing {
		slot := ids.ReplicaHash(i, rec.Key, rec.TS)
		_, _, _ = l.c.PutID(ctx, slot, logSlotKey(rec.Key, rec.TS, i), enc, true)
	}
}

// Exists reports whether any replica of (key, ts) holds a patch. The KTS
// uses it to re-synchronize its last-ts from the log after a total
// failover loss.
func (l *Log) Exists(ctx context.Context, key string, ts uint64) (bool, error) {
	_, err := l.Fetch(ctx, key, ts)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrMissing) {
		return false, nil
	}
	return false, err
}

// prefetchWindow is the retrieval window: how many consecutive
// timestamps FetchRange resolves concurrently. The output order is
// always the total timestamp order regardless of the window.
const prefetchWindow = 8

// mapWindowed applies fn to every timestamp in [from, to] with at most
// one prefetch window in flight: each window's timestamps run
// concurrently (their slots live at independent ring positions), then
// done(ts, fnErr) is invoked in increasing-ts order before the next
// window starts — results are merged strictly by slot regardless of
// which worker finished first. A non-nil error from done stops the
// sweep; a cancelled ctx stops it between windows.
//
// The fan-out runs through clock.Gather, which on a virtual clock
// admits the workers in slot order and hands the join back to this
// goroutine under the scheduler lock: same-seed simulations replay the
// whole window schedule identically (the Go+WaitGroup+Block shape this
// replaced raced the last worker's exit against the join and let ticker
// goroutines interleave nondeterministically).
func (l *Log) mapWindowed(ctx context.Context, from, to uint64, fn func(ts uint64) error, done func(ts uint64, fnErr error) error) error {
	for base := from; base <= to; base += prefetchWindow {
		end := base + prefetchWindow - 1
		if end > to {
			end = to
		}
		n := int(end - base + 1)
		errs := make([]error, n)
		workers := make([]func(), n)
		for i := 0; i < n; i++ {
			workers[i] = func() { errs[i] = fn(base + uint64(i)) }
		}
		l.clock.Gather(workers...)
		for i := 0; i < n; i++ {
			if err := done(base+uint64(i), errs[i]); err != nil {
				return err
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return nil
}

// FetchRange implements the paper's retrieval procedure: it returns the
// committed patches with timestamps in (from, to], strictly in increasing
// timestamp order. Any missing intermediate timestamp aborts with
// ErrMissing — total order means no holes may be skipped; the records
// before the first hole are returned.
//
// Slots for consecutive timestamps live at independent ring positions
// (the Hr family hashes ts), so they are fetched concurrently in windows
// and reassembled in order — retrieval latency is ~ceil(k/window) round
// trips for k missing patches rather than k.
func (l *Log) FetchRange(ctx context.Context, key string, from, to uint64) ([]Record, error) {
	if to < from {
		return nil, fmt.Errorf("p2plog: bad range (%d,%d]", from, to)
	}
	all := make([]Record, to-from)
	resolved := 0
	err := l.mapWindowed(ctx, from+1, to,
		func(ts uint64) error {
			rec, err := l.Fetch(ctx, key, ts)
			if err != nil {
				return err
			}
			all[ts-from-1] = rec
			return nil
		},
		func(ts uint64, fnErr error) error {
			if fnErr != nil {
				return fmt.Errorf("retrieving ts %d of %s: %w", ts, key, fnErr)
			}
			resolved++ // done runs in increasing ts order, so this is the in-order prefix
			return nil
		})
	return all[:resolved], err
}

// Truncate reclaims Log-Peer storage by deleting every replica slot of
// key with timestamp in [1, upToTS]. Deleted counts the slot replicas
// that were actually removed somewhere on the ring.
//
// Callers MUST only truncate timestamps covered by a fully-replicated
// checkpoint (see internal/checkpoint, which gates exactly that): the
// write-once invariant remains intact for the live tail (upToTS, last],
// which Master-key crash-recovery still walks. Deletion is best-effort
// per slot — an unreachable Log-Peer keeps its copy and a later Truncate
// pass reclaims it.
//
// Like FetchRange, consecutive timestamps live at independent ring
// positions, so their slot deletes are issued concurrently in prefetch
// windows: reclaiming a deep history costs ~ceil(k/window) round trips
// instead of k.
func (l *Log) Truncate(ctx context.Context, key string, upToTS uint64) (deleted int, err error) {
	return l.TruncateTo(ctx, key, 0, upToTS)
}

// TruncateTo deletes the replica slots with timestamps in
// (afterTS, upToTS] and declares upToTS the key's truncation low-water
// mark: every contacted Log-Peer records that no slot of key at or below
// upToTS may ever be stored or promoted again, and reclaims any stale
// copy it still holds. It is the prefix-truncation entry point — callers
// assert that the whole prefix [1, upToTS] is covered by a
// fully-replicated checkpoint AND that [1, afterTS] was already
// reclaimed by their previous sweeps (the maintenance engine's per-key
// horizon guarantees both). The floor is what stops the DHT's
// successor-copy promotion from resurrecting truncated slots when churn
// races the async copy delete — a leak no later sweep would revisit,
// since each sweep is O(new history) by design.
func (l *Log) TruncateTo(ctx context.Context, key string, afterTS, upToTS uint64) (deleted int, err error) {
	if upToTS <= afterTS {
		return 0, nil
	}
	// One atomic counter instead of a per-ts slice: a fresh master's
	// first sweep over a deep pointer spans millions of timestamps, and
	// the O(range) slice existed only to ferry per-window delete counts.
	var removed atomic.Int64
	var lastErr error
	werr := l.mapWindowed(ctx, afterTS+1, upToTS,
		func(ts uint64) error {
			var derrLast error
			for r := 0; r < l.replicas; r++ {
				// Each delete carries the sweep's truncation horizon, so the
				// responsible peer (and, via its replica-delete push and
				// periodic refresh, its successor) learns the low-water
				// mark and reclaims any stale copy itself; those sweep
				// removals ride back in the count.
				n, derr := l.c.DeleteSlotID(ctx, ids.ReplicaHash(r, key, ts), key, upToTS)
				if derr != nil {
					derrLast = derr
					continue
				}
				removed.Add(int64(n))
			}
			return derrLast
		},
		func(ts uint64, fnErr error) error {
			if fnErr != nil {
				lastErr = fnErr
			}
			return nil
		})
	deleted = int(removed.Load())
	if werr != nil {
		return deleted, werr
	}
	if lastErr != nil {
		return deleted, fmt.Errorf("p2plog: truncate %s up to %d: %w", key, upToTS, lastErr)
	}
	return deleted, nil
}

// logSlotKey is the debug name stored alongside a slot; the format lives
// in ids so the DHT's truncation low-water mark can parse it back.
func logSlotKey(key string, ts uint64, replica int) string {
	return ids.LogSlotName(key, ts, replica)
}
