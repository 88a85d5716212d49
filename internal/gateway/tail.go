package gateway

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"p2pltr/internal/p2plog"
	"p2pltr/internal/vclock"
)

// tailSize is both the number of newest committed records a tail keeps
// and the widest window one read fetches at once. It equals p2plog's
// prefetch window, so a full window is exactly one fork-join of the log.
// (8 and 16 measured the same on both serve workloads; 16 cost 2 MB.)
const tailSize = 8

// tail is one document's log as this gateway has read it: a ring of the
// newest tailSize committed records and the reads in flight. Everybody on
// the gateway who reads the document's log — its feed, and its writer's
// replica retrieving after a Behind verdict — reads through it, so a
// record comes from the DHT once per gateway (twice when a feed's probe
// and the writer's read cross), not once per reader.
//
// Log slots are write-once, so a record in the ring never goes stale and
// the ring is never invalidated. Only found records are kept: a missing
// slot or an error is never remembered.
type tail struct {
	g   *Gateway
	key string

	// mu guards the fields below; never held across a park.
	mu     sync.Mutex
	ring   [tailSize]p2plog.Record // slot ts%tailSize; TS 0 = empty
	newest uint64
	// reading maps a timestamp to the lock its reader holds until the
	// read has landed in the ring. A vclock.Mutex, because waiters park
	// on it while the reader is out on the network.
	reading map[uint64]*vclock.Mutex
}

func newTail(g *Gateway, key string) *tail {
	return &tail{g: g, key: key, reading: make(map[uint64]*vclock.Mutex)}
}

func (t *tail) hasLocked(ts uint64) bool { return t.ring[ts%tailSize].TS == ts }

// insert files found records. A record older than the ring reaches is
// dropped; one that meets a different patch at its timestamp keeps the
// first and is reported: two patches at one slot of a write-once log is
// the duplicate-grant defect (ROADMAP arc 1b), to be seen, not hidden.
func (t *tail) insert(ctx context.Context, recs ...p2plog.Record) {
	var conflicts []string
	t.mu.Lock()
	for _, rec := range recs {
		if rec.TS+tailSize <= t.newest {
			continue
		}
		slot := &t.ring[rec.TS%tailSize]
		if slot.TS == rec.TS {
			if slot.PatchID != rec.PatchID {
				conflicts = append(conflicts, "ts="+strconv.FormatUint(rec.TS, 10)+
					" kept="+slot.PatchID+" dropped="+rec.PatchID)
			}
			continue
		}
		*slot = rec
		if rec.TS > t.newest {
			t.newest = rec.TS
		}
	}
	t.mu.Unlock()
	for _, detail := range conflicts {
		t.g.counters.Counter("tail-conflicts").Add(1)
		t.g.peer.Flight.Record(ctx, "tail-conflict", t.key, detail)
	}
}

// fetchRange is p2plog.Log.FetchRange through the tail: the records of
// (from, to] in order, and on a hole the prefix before it with the log's
// error.
//
// A record in the ring is taken from it. What is neither there nor being
// read this call reads itself, the whole run of such timestamps at once:
// one record on its own goroutine, more through the log's windowed
// fork-join. A reader more than tailSize behind cannot be served by the
// ring; it gets p2plog's own windowed retrieval, unchanged and unshared.
//
// known says the caller holds the master's word that the range exists
// (ValidateBehind.LastTS); without it the read is a probe past what
// anybody knows, and most probes end in a hole. A known read is
// registered while in flight and later readers of either kind await it
// instead of repeating it, then look again: a hit is shared for good, a
// miss never is — the waiter goes on to read for itself. A probe is never
// registered, so nobody waits on one: an editor that waited out a probe
// which had left before the publish finished paid for two reads in a row
// (bystander commit p50 +9 to +12 % on serve-hot). What a probe finds
// lands in the ring all the same.
func (t *tail) fetchRange(ctx context.Context, from, to uint64, known bool) (out []p2plog.Record, err error) {
	g := t.g
	for {
		var mine *vclock.Mutex
		if known {
			mine = vclock.NewMutex(g.clk)
			mine.Lock() // fresh: does not park
		}
		t.mu.Lock()
		hits := 0
		for from < to && t.hasLocked(from+1) {
			from++
			hits++
			out = append(out, t.ring[from%tailSize])
		}
		far := to-from > tailSize
		var theirs *vclock.Mutex
		end := from // this call reads (from, end]
		if from < to && !far {
			theirs = t.reading[from+1]
			for theirs == nil && end < to && !t.hasLocked(end+1) && t.reading[end+1] == nil {
				end++
				if known {
					t.reading[end] = mine
				}
			}
		}
		t.mu.Unlock()
		g.counters.Counter("tail-hits").Add(int64(hits))
		if from == to {
			return out, nil
		}
		if theirs != nil {
			theirs.Lock()
			theirs.Unlock()
			continue
		}

		var recs []p2plog.Record
		switch {
		case far:
			recs, err = g.peer.Log.FetchRange(ctx, t.key, from, to)
		case end == from+1:
			var rec p2plog.Record
			if rec, err = g.peer.Log.Fetch(ctx, t.key, end); err == nil {
				recs = []p2plog.Record{rec}
			} else {
				err = fmt.Errorf("retrieving ts %d of %s: %w", end, t.key, err)
			}
		default:
			recs, err = g.peer.Log.FetchRange(ctx, t.key, from, end)
		}
		g.counters.Counter("tail-misses").Add(int64(len(recs)))
		t.insert(ctx, recs...)
		if known {
			t.mu.Lock()
			for ts := from + 1; ts <= end; ts++ {
				delete(t.reading, ts)
			}
			t.mu.Unlock()
			mine.Unlock()
		}
		out = append(out, recs...)
		from += uint64(len(recs))
		if err != nil {
			return out, err
		}
	}
}
