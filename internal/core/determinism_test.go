package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/maintain"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

// clientEvent is one observed client-side milestone on the virtual
// timeline.
type clientEvent struct {
	Site string
	TS   uint64
	At   time.Duration
}

// clientTrace is everything one multi-client run observed.
type clientTrace struct {
	Events  []clientEvent
	Final   string
	FinalTS uint64
	Sent    int64
	Dropped int64
	EndedAt time.Duration
}

// runClientSchedule drives several concurrent editing clients — the
// full edit/validate/retrieve pipeline with retry backoff, checkpoint
// production and the maintenance engine — on a virtual clock with
// seeded latency and loss, and records the commit schedule.
func runClientSchedule(t *testing.T, seed int64) clientTrace {
	t.Helper()
	const (
		peers    = 10
		sessions = 4
		edits    = 6
	)
	opts := core.Options{CheckpointInterval: 8}
	// KeepIntervals holds one interval of log back from truncation so a
	// briefly-lagging session can still integrate; sessions additionally
	// opt into the checkpoint rebase policy below — without both, an
	// unlucky laggard hits ErrTruncated forever and the workload never
	// finishes (by design: that is the application's decision to make).
	opts.Maintain = &maintain.Config{TruncateEvery: 200 * time.Millisecond, KeepIntervals: 1}
	c := ringtest.NewVirtualCluster(peers, opts,
		transport.WithLatency(transport.NewLogNormalLatency(2*time.Millisecond, 0.5, seed)),
		transport.WithDropProb(0.02, seed+1))
	defer c.Close()
	clk := c.Clk

	ctx := context.Background()
	key := "sched-doc"
	var (
		mu     sync.Mutex
		tr     clientTrace
		doneN  int
		epoch  = time.Unix(0, 0).UTC()
		record = func(site string, ts uint64) {
			mu.Lock()
			tr.Events = append(tr.Events, clientEvent{Site: site, TS: ts, At: clk.Since(epoch)})
			mu.Unlock()
		}
	)
	for s := 0; s < sessions; s++ {
		site := fmt.Sprintf("site-%d", s)
		host := c.Peers[1+s]
		rng := rand.New(rand.NewSource(seed + int64(s)*1000))
		clk.Go(func() {
			defer func() {
				mu.Lock()
				doneN++
				mu.Unlock()
			}()
			r := core.NewReplica(host, key, site)
			r.SetRebaseOntoCheckpoint(true)
			for e := 0; e < edits; e++ {
				_ = clk.Sleep(ctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
				w := len(r.Text())
				pos := 0
				if w > 0 {
					pos = rng.Intn(2)
				}
				if err := r.Insert(pos, fmt.Sprintf("%s edit %d", site, e)); err != nil {
					t.Errorf("%s insert %d: %v", site, e, err)
					return
				}
				for {
					ts, err := r.Commit(ctx)
					if err == nil {
						record(site, ts)
						break
					}
					// Unavailable master / mid-churn lookup failure: back
					// off on the clock and retry, like a real client.
					_ = clk.Sleep(ctx, 10*time.Millisecond)
				}
			}
		})
	}
	for {
		mu.Lock()
		done := doneN == sessions
		mu.Unlock()
		if done {
			break
		}
		_ = clk.Sleep(ctx, 5*time.Millisecond)
	}

	reader := core.NewReplica(c.Peers[0], key, "reader")
	if err := reader.Pull(ctx); err != nil {
		t.Fatalf("final pull: %v", err)
	}
	tr.Final = reader.CommittedText()
	tr.FinalTS = reader.CommittedTS()
	tr.Sent, tr.Dropped = c.Net.Stats()
	tr.EndedAt = clk.Since(epoch)
	return tr
}

// TestClientSchedulingDeterministicUnderVirtual pins the core-layer half
// of the full-stack determinism claim: concurrent client goroutines —
// the edit pipeline with validation retries, backoff, checkpoint
// production and background maintenance — spawned and woken through the
// clock seam interleave identically on every same-seed run: same commit
// schedule (site, timestamp, virtual instant), same final document,
// same message counters.
func TestClientSchedulingDeterministicUnderVirtual(t *testing.T) {
	a := runClientSchedule(t, 11)
	b := runClientSchedule(t, 11)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("commit schedules diverged between same-seed runs:\n%+v\nvs\n%+v", a.Events, b.Events)
	}
	if a.Final != b.Final || a.FinalTS != b.FinalTS {
		t.Fatalf("final documents diverged: ts %d vs %d", a.FinalTS, b.FinalTS)
	}
	if a.Sent != b.Sent || a.Dropped != b.Dropped {
		t.Fatalf("message counters diverged: sent %d vs %d, dropped %d vs %d",
			a.Sent, b.Sent, a.Dropped, b.Dropped)
	}
	if a.EndedAt != b.EndedAt {
		t.Fatalf("virtual end times diverged: %v vs %v", a.EndedAt, b.EndedAt)
	}

	c := runClientSchedule(t, 12)
	if reflect.DeepEqual(a.Events, c.Events) && a.Sent == c.Sent {
		t.Fatal("different seeds produced identical runs; determinism test is vacuous")
	}
}
