// Package flightrec is the per-peer flight recorder: a bounded ring of
// structured lifecycle events — chord join/suspect/evict/handover, KTS
// takeover/grant/shed, DHT promotion/re-home/floor-sweep, checkpoint
// publish/repair, truncation — each stamped with the recording peer, the
// clock's current instant, and the trace ID active on the triggering
// request context. Under vclock.Virtual every stamp is an exact virtual
// instant, so two same-seed runs produce bitwise-identical event streams
// (pinned by digest comparison, like span hashes).
//
// The recorder deliberately imports only vclock and the standard
// library: subsystems down the stack (chord, dht, kts, maintain) record
// into it without pulling in the span machinery. The trace-ID hook is
// a constructor argument (normally trace.TraceIDFromContext), keeping
// the dependency arrow pointing one way.
//
// A nil *Recorder is a valid no-op, so instrumented code never branches
// on "is the recorder on".
package flightrec

import (
	"context"
	"sort"
	"sync"
	"time"

	"p2pltr/internal/vclock"
)

// Event is one recorded lifecycle event. T is the clock instant the
// event was recorded at (virtual time under vclock.Virtual); Seq is the
// per-recorder admission number, which breaks ties between same-instant
// events on one peer. Trace is the trace ID active on the triggering
// request context, 0 when the event happened outside any traced request
// (periodic maintenance, local timers).
type Event struct {
	Seq    uint64
	T      time.Time
	Peer   string
	Trace  uint64
	Kind   string
	Key    string
	Detail string
}

// FNV-1a, inlined so digests need no hash imports (same constants as the
// span hashes in internal/trace).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

func foldInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime
		u >>= 8
	}
	return h
}

// Hash folds the event into a rolling FNV-1a accumulator. Determinism
// tests fold whole event streams and compare digests across same-seed
// runs.
func (e Event) Hash(h uint64) uint64 {
	h = foldInt(h, int64(e.Seq))
	h = foldInt(h, e.T.UnixNano())
	h = foldString(h, e.Peer)
	h = foldInt(h, int64(e.Trace))
	h = foldString(h, e.Kind)
	h = foldString(h, e.Key)
	h = foldString(h, e.Detail)
	return h
}

// DigestEvents folds a slice of events, in order, into one digest.
func DigestEvents(events []Event) uint64 {
	h := uint64(fnvOffset)
	for _, e := range events {
		h = e.Hash(h)
	}
	return h
}

// Recorder is one peer's bounded event ring. Methods are safe for
// concurrent use and no-ops on a nil receiver.
type Recorder struct {
	clk     vclock.Clock
	peer    string
	keep    int
	traceID func(context.Context) uint64

	mu    sync.Mutex
	ring  []Event
	next  int
	total uint64
}

// New returns a recorder for the named peer, timing through clk and
// retaining the last keep events (256 when keep <= 0). traceID extracts
// the active trace ID from a request context (normally
// trace.TraceIDFromContext); with a nil traceID every event records
// trace 0.
func New(clk vclock.Clock, peer string, keep int, traceID func(context.Context) uint64) *Recorder {
	if keep <= 0 {
		keep = 256
	}
	return &Recorder{
		clk:     clk,
		peer:    peer,
		keep:    keep,
		traceID: traceID,
		ring:    make([]Event, 0, keep),
	}
}

// Peer returns the peer address this recorder stamps its events with.
func (r *Recorder) Peer() string {
	if r == nil {
		return ""
	}
	return r.peer
}

// Record admits one event. ctx may be nil (events fired by local timers
// have no request context); the trace ID is extracted through the
// installed hook. The lock is held only across in-memory ring updates —
// no clock parks, no calls out — so recording from any subsystem
// goroutine is deterministic-scheduler safe.
func (r *Recorder) Record(ctx context.Context, kind, key, detail string) {
	if r == nil {
		return
	}
	now := r.clk.Now()
	var tid uint64
	if r.traceID != nil {
		tid = r.traceID(ctx)
	}
	r.mu.Lock()
	r.total++
	e := Event{Seq: r.total, T: now, Peer: r.peer, Trace: tid, Kind: kind, Key: key, Detail: detail}
	if len(r.ring) < r.keep {
		r.ring = append(r.ring, e)
		r.next = len(r.ring) % r.keep
	} else {
		r.ring[r.next] = e
		r.next = (r.next + 1) % r.keep
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if len(r.ring) < r.keep {
		out = append(out, r.ring...)
		return out
	}
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Total returns how many events were ever recorded (including those the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the bounded ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(r.keep) {
		return 0
	}
	return r.total - uint64(r.keep)
}

// Digest folds the retained events, oldest first, into one digest.
func (r *Recorder) Digest() uint64 {
	return DigestEvents(r.Events())
}

// Merge assembles the retained events of many recorders into one
// causally ordered global timeline: sorted by instant, then by peer,
// then by per-peer sequence. Under a virtual clock the instants are
// exact, so the order is the true cluster-wide happened-at order (with
// deterministic tie-breaks for same-instant events on different peers).
func Merge(recs ...*Recorder) []Event {
	var all []Event
	for _, r := range recs {
		all = append(all, r.Events()...)
	}
	SortTimeline(all)
	return all
}

// SortTimeline sorts events into global timeline order: (T, Peer, Seq).
func SortTimeline(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if !events[i].T.Equal(events[j].T) {
			return events[i].T.Before(events[j].T)
		}
		if events[i].Peer != events[j].Peer {
			return events[i].Peer < events[j].Peer
		}
		return events[i].Seq < events[j].Seq
	})
}

// CausalSlice extracts the forensic slice of a timeline: every event
// whose Key is one of keys, plus — transitively through trace IDs —
// every event sharing a trace with one of those, whatever its key. The
// trace closure is what turns "the violating doc's events" into the
// cross-peer narrative: the grant that timestamped the doomed commit
// happened on the KTS peer under the same trace ID as the gateway's
// publish. The input order is preserved; pass a Merge-d timeline for a
// causally ordered slice.
func CausalSlice(events []Event, keys ...string) []Event {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	traces := make(map[uint64]bool)
	for _, e := range events {
		if want[e.Key] && e.Trace != 0 {
			traces[e.Trace] = true
		}
	}
	var out []Event
	for _, e := range events {
		if want[e.Key] || (e.Trace != 0 && traces[e.Trace]) {
			out = append(out, e)
		}
	}
	return out
}
