package trace

import (
	"context"
	"sort"
	"sync"

	"p2pltr/internal/vclock"
)

// ring is the bounded buffer behind both the tracer's recent spans and a
// recorder's events: it retains the last keep records and counts every
// record it was handed. Callers hold their own lock around it.
type ring struct {
	keep  int
	buf   []SpanData
	next  int // write cursor once buf is full
	total uint64
}

// newRing returns a ring retaining keep records (256 when keep <= 0).
// Its buffer grows as records arrive, so a generous keep costs memory
// only once that many records have been added.
func newRing(keep int) ring {
	if keep <= 0 {
		keep = 256
	}
	return ring{keep: keep}
}

func (r *ring) add(d SpanData) {
	r.total++
	if len(r.buf) < r.keep {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.next] = d
	}
	r.next = (r.next + 1) % r.keep
}

// oldestFirst copies out the retained records in the order they were added.
func (r *ring) oldestFirst() []SpanData {
	out := make([]SpanData, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// newestFirst copies out up to n retained records, most recent first
// (all of them when n <= 0).
func (r *ring) newestFirst(n int) []SpanData {
	size := len(r.buf)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]SpanData, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-1-i+size)%size])
	}
	return out
}

// Recorder is one peer's flight recorder: a bounded ring of lifecycle
// events, each a zero-width SpanData stamped with the peer, the clock's
// current instant and the trace ID active on the triggering request
// context. Under vclock.Virtual every stamp is an exact virtual instant,
// so two same-seed runs record bitwise-identical event streams. Methods
// are safe for concurrent use and no-ops on a nil receiver.
type Recorder struct {
	clk  vclock.Clock
	peer string

	mu   sync.Mutex
	ring ring
}

// NewRecorder returns a recorder for the named peer, timing through clk
// and retaining the last keep events (256 when keep <= 0).
func NewRecorder(clk vclock.Clock, peer string, keep int) *Recorder {
	return &Recorder{clk: clk, peer: peer, ring: newRing(keep)}
}

// Record admits one event. ctx may be nil (events fired by local timers
// have no request context), which stamps trace 0. The lock is held only
// across the in-memory ring update — no clock parks, no calls out — so
// recording from any subsystem goroutine is deterministic-scheduler safe.
func (r *Recorder) Record(ctx context.Context, kind, key, detail string) {
	if r == nil {
		return
	}
	now := r.clk.Now()
	tid := TraceIDFromContext(ctx)
	r.mu.Lock()
	r.ring.add(SpanData{ID: r.ring.total + 1, Trace: tid, Peer: r.peer,
		Kind: kind, Key: key, Start: now, End: now, Detail: detail})
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.oldestFirst()
}

// Total returns how many events were ever recorded (including those the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.total
}

// Dropped returns how many events the bounded ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.total - uint64(len(r.ring.buf))
}

// DigestEvents folds events, in order, into one digest: each event's
// sequence number, instant, peer, trace, kind, key and detail.
// Determinism tests compare whole merged timelines through it.
func DigestEvents(events []SpanData) uint64 {
	h := uint64(fnvOffset)
	for _, e := range events {
		h = foldInt(h, int64(e.ID))
		h = foldInt(h, e.Start.UnixNano())
		h = foldString(h, e.Peer)
		h = foldInt(h, int64(e.Trace))
		h = foldString(h, e.Kind)
		h = foldString(h, e.Key)
		h = foldString(h, e.Detail)
	}
	return h
}

// Merge assembles the retained events of many recorders into one
// causally ordered global timeline: sorted by instant, then by peer,
// then by per-peer sequence. Under a virtual clock the instants are
// exact, so the order is the true cluster-wide happened-at order (with
// deterministic tie-breaks for same-instant events on different peers).
func Merge(recs ...*Recorder) []SpanData {
	var all []SpanData
	for _, r := range recs {
		all = append(all, r.Events()...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if !all[i].Start.Equal(all[j].Start) {
			return all[i].Start.Before(all[j].Start)
		}
		if all[i].Peer != all[j].Peer {
			return all[i].Peer < all[j].Peer
		}
		return all[i].ID < all[j].ID
	})
	return all
}

// CausalSlice extracts the forensic slice of a timeline: every event
// whose Key is one of keys, plus — transitively through trace IDs —
// every event sharing a trace with one of those, whatever its key. The
// trace closure is what turns "the violating doc's events" into the
// cross-peer narrative: the grant that timestamped the doomed commit
// happened on the KTS peer under the same trace ID as the gateway's
// publish. The input order is preserved; pass a Merge-d timeline for a
// causally ordered slice.
func CausalSlice(events []SpanData, keys ...string) []SpanData {
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
	var out []SpanData
	for _, e := range events {
		if want[e.Key] || (e.Trace != 0 && traces[e.Trace]) {
			out = append(out, e)
		}
	}
	return out
}
