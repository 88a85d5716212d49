package p2plog_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

// recordingLatency wraps a latency model and logs the order in which
// deliveries draw from it. Under a virtual clock that order IS the
// simulation's event order: any nondeterminism in how the windowed
// fan-out schedules its workers shows up as a diverging log (and, since
// the draws come from one seeded stream, as diverging delays and
// therefore diverging virtual timestamps everywhere downstream).
type recordingLatency struct {
	inner transport.LatencyModel
	mu    sync.Mutex
	log   []string
}

func (r *recordingLatency) Delay(from, to transport.Addr) time.Duration {
	r.mu.Lock()
	r.log = append(r.log, string(from)+">"+string(to))
	r.mu.Unlock()
	return r.inner.Delay(from, to)
}

// windowTrace is everything one windowed-retrieval run observed.
type windowTrace struct {
	Records   []p2plog.Record
	Deleted   int
	FetchedAt time.Duration // virtual instant FetchRange returned
	DoneAt    time.Duration // virtual instant TruncateTo returned
	Events    []string      // delivery order (see recordingLatency)
	Sent      int64
	Dropped   int64
}

// runWindowTrace publishes a history, fetches it back through the
// windowed concurrent retrieval, then reclaims it with the windowed
// truncation sweep — all in virtual time under seeded latency and loss.
func runWindowTrace(t *testing.T, seed int64) windowTrace {
	t.Helper()
	const history = 24
	rec := &recordingLatency{inner: transport.NewLogNormalLatency(5*time.Millisecond, 0.5, seed)}
	c := ringtest.NewVirtualCluster(8, core.Options{},
		transport.WithLatency(rec), transport.WithDropProb(0.02, seed+1))
	defer c.Close()
	clk := c.Clk

	ctx := context.Background()
	log := c.Peers[0].Log
	key := "det-doc"
	for ts := uint64(1); ts <= history; ts++ {
		r := p2plog.Record{Key: key, TS: ts, PatchID: fmt.Sprintf("a#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := log.Publish(ctx, r); err != nil {
			t.Fatalf("publish ts %d: %v", ts, err)
		}
	}

	var tr windowTrace
	epoch := time.Unix(0, 0).UTC()
	recs, err := log.FetchRange(ctx, key, 0, history)
	if err != nil {
		t.Fatalf("fetch range: %v", err)
	}
	tr.Records = recs
	tr.FetchedAt = clk.Since(epoch)

	deleted, err := log.TruncateTo(ctx, key, 0, history)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	tr.Deleted = deleted
	tr.DoneAt = clk.Since(epoch)

	rec.mu.Lock()
	tr.Events = append([]string(nil), rec.log...)
	rec.mu.Unlock()
	tr.Sent, tr.Dropped = c.Net.Stats()
	return tr
}

// TestWindowedRetrievalDeterministic pins the property E12 rests on at
// the p2plog layer: the windowed concurrent FetchRange/TruncateTo
// fan-out — worker goroutines racing over one seeded latency/drop
// stream before this PR — schedules identically on every same-seed run:
// identical record sequence, delete counts, virtual completion times,
// and the exact delivery order of every message on the wire.
func TestWindowedRetrievalDeterministic(t *testing.T) {
	a := runWindowTrace(t, 42)
	b := runWindowTrace(t, 42)
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("fetched record sequences diverged between same-seed runs")
	}
	if a.Deleted != b.Deleted {
		t.Fatalf("delete counts diverged: %d vs %d", a.Deleted, b.Deleted)
	}
	if a.FetchedAt != b.FetchedAt || a.DoneAt != b.DoneAt {
		t.Fatalf("virtual completion times diverged: fetch %v vs %v, truncate %v vs %v",
			a.FetchedAt, b.FetchedAt, a.DoneAt, b.DoneAt)
	}
	if a.Sent != b.Sent || a.Dropped != b.Dropped {
		t.Fatalf("message counters diverged: sent %d vs %d, dropped %d vs %d",
			a.Sent, b.Sent, a.Dropped, b.Dropped)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		for i := range a.Events {
			if i >= len(b.Events) || a.Events[i] != b.Events[i] {
				t.Fatalf("delivery order diverged at event %d: %q vs %q (of %d/%d)",
					i, a.Events[i], b.Events[i], len(a.Events), len(b.Events))
			}
		}
		t.Fatalf("delivery orders diverged in length: %d vs %d", len(a.Events), len(b.Events))
	}

	// A different seed must actually change the schedule, or the
	// comparison proves nothing.
	c := runWindowTrace(t, 43)
	if reflect.DeepEqual(a.Events, c.Events) && a.Sent == c.Sent {
		t.Fatal("different seeds produced identical schedules; determinism test is vacuous")
	}
}
