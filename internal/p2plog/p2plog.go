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
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p2pltr/internal/dht"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/vclock"
)

// ErrConflict reports that a slot already holds a different patch: a
// previous Master-key incarnation published this timestamp. The caller
// (the KTS) treats the existing patch as the committed one.
var ErrConflict = dht.ErrConflict

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
	c     *dht.Client
	clock vclock.Clock
}

// New returns a log view over n = ids.Replicas replicas per record. Every
// read repairs: a fetch that finds the record at some replica
// re-publishes it to replicas that are missing it, restoring the
// replication degree after Log-Peer crashes and re-homing slots onto the
// peers that currently own their positions. The windowed-retrieval
// worker goroutines run on clk, so virtual-time simulations can account
// for them.
func New(c *dht.Client, clk vclock.Clock) *Log {
	return &Log{c: c, clock: clk}
}

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

// Publish implements sendToPublish for one (key, ts): it writes the patch
// to all n replica slots and returns how many hold it. At least one
// replica must accept for the publish to count; a slot occupied by a
// different patch aborts with ErrConflict, naming the occupant's patch ID,
// so the master can converge on it.
func (l *Log) Publish(ctx context.Context, rec Record) (stored int, err error) {
	enc, err := encodeRecord(rec)
	if err != nil {
		return 0, err
	}
	return l.c.PutSlots(ctx, ids.LogSlot(rec.Key, rec.TS), enc, true, func(occupant []byte) error {
		r, err := decodeRecord(occupant)
		if err == nil && r.PatchID != rec.PatchID {
			return fmt.Errorf("%w: holds patch %s", ErrConflict, r.PatchID)
		}
		return err // nil: the same patch, counted as replicated
	})
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
	slot := ids.LogSlot(key, ts)
	for i := 0; i < ids.Replicas; i++ {
		pos := slot.Pos(i)
		if have {
			// Only probing for holes to repair from here on.
			if _, found, err := l.c.GetID(ctx, pos); err == nil && !found {
				missing = append(missing, i)
			}
			continue
		}
		v, found, err := l.c.GetID(ctx, pos)
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
	// Best-effort repair of the replicas observed empty.
	for _, i := range missing {
		_, _, _ = l.c.PutID(ctx, slot.Pos(i), slot.Name(i), enc, true)
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
	v, found, err := l.c.AwaitID(ctx, ids.LogSlot(key, ts).Pos(0), wait)
	if err != nil || !found {
		return Record{}, false, err
	}
	if rec, err = decodeRecord(v); err != nil {
		return Record{}, false, err
	}
	return rec, true, nil
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

// TruncateTo deletes the replica slots with timestamps in
// (afterTS, upToTS] and declares upToTS the key's truncation low-water
// mark: every contacted Log-Peer records that no slot of key at or below
// upToTS may ever be stored or promoted again, and reclaims every copy
// of such a slot it still holds. It is the one truncation entry point —
// callers assert that the whole prefix [1, upToTS] is covered by a
// fully-replicated checkpoint AND that [1, afterTS] was already
// reclaimed by their previous sweeps (the maintenance engine's repair
// verdict and per-key horizon guarantee both). The floor is what stops
// the DHT's successor-copy promotion from resurrecting truncated slots
// when churn races the async copy delete — a leak no later sweep would
// revisit, since each sweep is O(new history) by design. Deletion is
// best-effort per slot: an unreachable Log-Peer keeps its copy until the
// floor reaches it.
//
// Like FetchRange, the deletes of consecutive timestamps go out
// concurrently in prefetch windows, and the cost grows with the Log-Peers
// a sweep touches, not with its slots: a Log-Peer answering a delete
// inside its own arc vouches for the whole arc (msg.DHTDeleteResp.Arc),
// and later windows skip every slot on an arc vouched for in an earlier
// one. The skip set only grows between windows, so which deletes go out
// never depends on the order a window's concurrent replies arrive in.
// Each reclaimed slot is counted once, by the peer that removed it.
func (l *Log) TruncateTo(ctx context.Context, key string, afterTS, upToTS uint64) (deleted int, err error) {
	if upToTS <= afterTS {
		return 0, nil
	}
	// One atomic counter instead of a per-ts slice: a fresh master's
	// first sweep over a deep pointer spans millions of timestamps, and
	// the O(range) slice existed only to ferry per-window delete counts.
	var (
		removed atomic.Int64
		lastErr error
		mu      sync.Mutex
		learned []ids.Arc // vouched for in the window in flight (under mu)
		skip    arcSet    // vouched for in earlier windows; frozen during a window
	)
	werr := l.mapWindowed(ctx, afterTS+1, upToTS,
		func(ts uint64) error {
			var derrLast error
			slot := ids.LogSlot(key, ts)
			for r := 0; r < ids.Replicas; r++ {
				pos := slot.Pos(r)
				if skip.covers(pos) {
					continue
				}
				// Each delete carries the sweep's truncation horizon, so the
				// responsible peer (and, via its replica-delete push and
				// periodic refresh, its successor) learns the low-water
				// mark and reclaims every stale copy itself; those sweep
				// removals ride back in the count.
				n, arc, derr := l.c.DeleteSlotID(ctx, pos, key, upToTS)
				if derr != nil {
					derrLast = derr
					continue
				}
				removed.Add(int64(n))
				if !arc.Empty() {
					mu.Lock()
					learned = append(learned, arc)
					mu.Unlock()
				}
			}
			return derrLast
		},
		func(ts uint64, fnErr error) error {
			if fnErr != nil {
				lastErr = fnErr
			}
			// done runs after the whole window has returned and before the
			// next one starts: the only place the skip set grows.
			skip = skip.with(learned)
			learned = learned[:0]
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

// arcSet holds the arcs whose owners vouched that no slot of the key
// being truncated is left on them, sorted by (To, From) and without
// duplicates, so its content — and every answer covers gives — depends
// only on which arcs were added, not on their order.
type arcSet []ids.Arc

// with returns the set with arcs added.
func (s arcSet) with(arcs []ids.Arc) arcSet {
	if len(arcs) == 0 {
		return s
	}
	s = append(s, arcs...)
	slices.SortFunc(s, func(a, b ids.Arc) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.From, b.From))
	})
	return slices.Compact(s)
}

// covers reports whether p lies on an arc of the set. On a consistent
// ring the arcs are disjoint and p's owner's arc is the first ending at
// or after p (wrapping past zero), so that is the one it consults. Arcs
// from peers with stale predecessors may overlap; a position only such
// an arc covers may read as uncovered, which costs one delete, never a
// skipped slot.
func (s arcSet) covers(p ids.ID) bool {
	if len(s) == 0 {
		return false
	}
	i, _ := slices.BinarySearchFunc(s, p, func(a ids.Arc, p ids.ID) int { return cmp.Compare(a.To, p) })
	if i == len(s) {
		i = 0
	}
	return s[i].Contains(p)
}
