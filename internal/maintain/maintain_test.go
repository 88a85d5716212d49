package maintain_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/maintain"
	"p2pltr/internal/metrics"
	"p2pltr/internal/ringtest"
)

// newMaintCluster builds a simulated ring with checkpointing at interval
// and the maintenance engine mounted on every peer.
func newMaintCluster(t *testing.T, n int, interval uint64, cfg maintain.Config) *ringtest.Cluster {
	t.Helper()
	opts := ringtest.FastOptions()
	opts.CheckpointInterval = interval
	opts.Maintain = &cfg
	c, err := ringtest.NewCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// testClock is an engine clock the test moves by hand, so the engine's
// rate limiters open exactly when the test drives it past their periods.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Now()} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// counters aggregates the engine counter families across every peer (the
// key's master does the work, but which peer that is depends on hashing).
func counters(c *ringtest.Cluster) map[string]int64 {
	agg := metrics.NewFamily()
	for _, p := range c.Peers {
		if p.Maint != nil {
			agg.Merge(p.Maint.Counters())
		}
	}
	return agg.Snapshot()
}

// logSlots counts the P2P-Log slot replicas of key across the live
// peers' primary stores, without triggering any read repair.
func logSlots(c *ringtest.Cluster, key string) int {
	prefix := "log/" + key + "/"
	n := 0
	for _, p := range c.Live() {
		for _, e := range p.DHT.Store().SnapshotAll() {
			if strings.HasPrefix(e.Key, prefix) {
				n++
			}
		}
	}
	return n
}

// tsSlots counts the primary-store replicas of one (key, ts) log slot
// across the live peers, without any read repair.
func tsSlots(c *ringtest.Cluster, key string, ts uint64) int {
	replicas := c.Peers[0].Log.Replicas()
	n := 0
	for _, p := range c.Live() {
		for r := 0; r < replicas; r++ {
			if _, ok := p.DHT.Store().Get(ids.ReplicaHash(r, key, ts)); ok {
				n++
			}
		}
	}
	return n
}

func pointer(t *testing.T, c *ringtest.Cluster, key string) uint64 {
	t.Helper()
	ptr, err := c.Live()[0].Ckpt.LatestPointer(context.Background(), key)
	if err != nil {
		t.Fatalf("pointer: %v", err)
	}
	return ptr
}

func waitPointer(t *testing.T, c *ringtest.Cluster, key string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if pointer(t, c, key) >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("pointer stuck at %d, want %d", pointer(t, c, key), want)
}

func commit(t *testing.T, r *core.Replica, n int) uint64 {
	t.Helper()
	ctx := context.Background()
	var ts uint64
	for i := 0; i < n; i++ {
		if err := r.Insert(0, fmt.Sprintf("%s line %d", r.Site(), i)); err != nil {
			t.Fatal(err)
		}
		var err error
		if ts, err = r.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	return ts
}

// TestFallbackProducerHealsMissedBoundary: the boundary author dies
// right after its boundary commit (production disabled), so no
// checkpoint appears. The master's engine must detect the lag, produce
// the snapshot itself, and advance the pointer — and a cold join must
// then pay only the tail.
func TestFallbackProducerHealsMissedBoundary(t *testing.T) {
	const interval = 4
	c := newMaintCluster(t, 5, interval, maintain.Config{TruncateEvery: time.Hour})
	key := "missed-boundary"
	w := core.NewReplica(c.Peers[0], key, "author")
	w.SetCheckpointProduction(false)
	commit(t, w, 6)

	waitPointer(t, c, key, interval)
	if snap := counters(c); snap["fallback-checkpoints"] == 0 {
		t.Fatalf("pointer advanced without a fallback checkpoint: %v", snap)
	}
	if published, _ := w.CheckpointStats(); published != 0 {
		t.Fatalf("dead author published %d checkpoints", published)
	}

	joiner := core.NewReplica(c.Peers[3], key, "joiner")
	if err := joiner.Pull(context.Background()); err != nil {
		t.Fatalf("cold join: %v", err)
	}
	if joiner.Text() != w.Text() {
		t.Fatalf("joiner diverged:\n%q\nvs\n%q", joiner.Text(), w.Text())
	}
	if _, fetched := joiner.Stats(); fetched > interval {
		t.Fatalf("cold join fetched %d patches, fallback checkpoint should bound it to %d", fetched, interval)
	}
	if _, boots := joiner.CheckpointStats(); boots != 1 {
		t.Fatalf("joiner bootstrapped %d times, want 1", boots)
	}
}

// TestRepairsLostCheckpointSlots: a checkpoint replica slot erased by
// churn (simulated with a direct delete) must be re-published by the
// engine's anti-entropy pass — today's read path tolerates the hole
// silently, so without repair the degree erodes forever.
func TestRepairsLostCheckpointSlots(t *testing.T) {
	const interval = 4
	clk := newTestClock()
	c := newMaintCluster(t, 5, interval, maintain.Config{TruncateEvery: time.Hour, Now: clk.Now})
	key := "lost-slot"
	ctx := context.Background()
	w := core.NewReplica(c.Peers[0], key, "author")
	commit(t, w, interval) // author checkpoints at the boundary itself
	waitPointer(t, c, key, interval)

	slot := ids.CheckpointHash(0, key, interval)
	if _, err := c.Peers[0].Client.DeleteID(ctx, slot); err != nil {
		t.Fatalf("delete slot: %v", err)
	}
	if _, found, _ := c.Peers[0].Client.GetID(ctx, slot); found {
		t.Fatal("slot still present after delete")
	}

	// Wait for the repair counter, not the read path: a read can
	// transiently resolve to the successor's copy while the async
	// replica delete is still in flight, which is not a repair. Each poll
	// moves the engine clock past the repair throttle, so every pass
	// probes.
	deadline := time.Now().Add(20 * time.Second)
	for counters(c)["slots-repaired"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine never repaired the lost checkpoint slot; counters: %v", counters(c))
		}
		clk.advance(maintain.DefaultRepairEvery)
		time.Sleep(10 * time.Millisecond)
	}
	if _, found, _ := c.Peers[0].Client.GetID(ctx, slot); !found {
		t.Fatal("repair counter moved but the slot is still unreadable")
	}
}

// TestTruncationRateLimited: truncation is throttled per key. With a
// huge TruncateEvery and an injected clock, the first covered prefix is
// reclaimed immediately, the next only after the clock advances.
func TestTruncationRateLimited(t *testing.T) {
	const interval = 4
	clk := newTestClock()
	c := newMaintCluster(t, 5, interval, maintain.Config{TruncateEvery: time.Hour, Now: clk.Now})
	key := "ratelimit"
	w := core.NewReplica(c.Peers[0], key, "author")
	commit(t, w, interval)
	waitPointer(t, c, key, interval)

	// First truncation is allowed immediately (no prior attempt).
	deadline := time.Now().Add(20 * time.Second)
	for logSlots(c, key) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("first auto-truncation never ran; %d slots left, counters %v", logSlots(c, key), counters(c))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Second covered prefix appears, but the throttle window is open.
	commit(t, w, interval)
	waitPointer(t, c, key, 2*interval)
	time.Sleep(200 * time.Millisecond) // many passes, all rate-limited
	if got := logSlots(c, key); got == 0 {
		t.Fatal("second truncation ran inside the rate-limit window")
	}
	snap := counters(c)
	if snap["truncations"] != 1 {
		t.Fatalf("truncations = %d inside the window, want 1 (%v)", snap["truncations"], snap)
	}
	if snap["truncations-ratelimited"] == 0 {
		t.Fatalf("throttled passes not counted: %v", snap)
	}

	clk.advance(2 * time.Hour)
	// Poll the counter, not the slot count: the engine bumps it only
	// after the last delete lands.
	deadline = time.Now().Add(20 * time.Second)
	for counters(c)["truncations"] < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("truncation never ran after the window passed; counters %v", counters(c))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := logSlots(c, key); got != 0 {
		t.Fatalf("%d log slots left after the second truncation", got)
	}
	if snap := counters(c); snap["truncations"] != 2 {
		t.Fatalf("truncations = %d after the window, want 2", snap["truncations"])
	}
}

// TestNoopWhenAuthorCheckpointed: when the boundary author did its job,
// later passes must be pure no-ops — no duplicate production, no
// repairs, pointer untouched (the idempotence race resolves through
// write-once slots and the serialized announce path).
func TestNoopWhenAuthorCheckpointed(t *testing.T) {
	const interval = 4
	c := newMaintCluster(t, 5, interval, maintain.Config{TruncateEvery: time.Hour})
	key := "author-did-it"
	w := core.NewReplica(c.Peers[0], key, "author")
	commit(t, w, interval+1)
	if published, _ := w.CheckpointStats(); published != 1 {
		t.Fatalf("author published %d checkpoints, want 1", published)
	}
	waitPointer(t, c, key, interval)

	time.Sleep(150 * time.Millisecond) // let several passes observe the healthy state
	before := counters(c)
	time.Sleep(150 * time.Millisecond)
	after := counters(c)
	for _, name := range []string{"fallback-checkpoints", "slots-repaired", "errors"} {
		if after[name] != before[name] {
			t.Fatalf("%s moved on a healthy key: %d -> %d", name, before[name], after[name])
		}
	}
	if after["passes"] == before["passes"] {
		t.Fatal("engine stopped running passes")
	}
	if ptr := pointer(t, c, key); ptr != interval {
		t.Fatalf("pointer moved to %d on a healthy key", ptr)
	}
}

// TestRepairIntervalThrottlesSteadyState: checkpoint-slot repair probes
// run at the full maintenance pass rate only until the first verdict;
// afterwards they respect DefaultRepairEvery, so a healthy key stops
// paying |Hc|+pointer background reads every tick. The injected clock
// drives the window deterministically.
func TestRepairIntervalThrottlesSteadyState(t *testing.T) {
	const interval = 4
	clk := newTestClock()
	c := newMaintCluster(t, 5, interval, maintain.Config{TruncateEvery: time.Hour, Now: clk.Now})
	key := "repair-throttle"
	ctx := context.Background()
	w := core.NewReplica(c.Peers[0], key, "author")
	commit(t, w, interval)
	waitPointer(t, c, key, interval)

	// Let passes accumulate with the clock frozen: repair must have run
	// at most once (the first verdict) while skipped passes are counted.
	deadline := time.Now().Add(20 * time.Second)
	for counters(c)["repairs-skipped"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no pass skipped repair inside the window; counters %v", counters(c))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A slot lost inside the window stays lost — the probe is throttled.
	slot := ids.CheckpointHash(0, key, interval)
	if _, err := c.Peers[0].Client.DeleteID(ctx, slot); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // many passes, all inside the window
	if _, found, _ := c.Peers[0].Client.GetID(ctx, slot); found {
		t.Fatal("slot repaired inside the repair window")
	}

	// Once the window passes, the next probe repairs it.
	clk.advance(2 * maintain.DefaultRepairEvery)
	deadline = time.Now().Add(20 * time.Second)
	for {
		if _, found, _ := c.Peers[0].Client.GetID(ctx, slot); found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never repaired after the window passed; counters %v", counters(c))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap := counters(c); snap["slots-repaired"] == 0 {
		t.Fatalf("slot reappeared without the repair counter moving: %v", snap)
	}
}

// TestFallbackCatchupCapped: a deep history with no checkpoints at all
// is closed stepwise — at most DefaultMaxCatchupIntervals intervals per
// pass, publishing the intermediate boundaries on the way — instead of
// one pass replaying everything on the shared maintenance goroutine.
func TestFallbackCatchupCapped(t *testing.T) {
	const (
		interval   = 2
		boundaries = maintain.DefaultMaxCatchupIntervals + 1 // deeper than one pass may close
	)
	c := newMaintCluster(t, 5, interval, maintain.Config{TruncateEvery: time.Hour})
	key := "deep-history"
	w := core.NewReplica(c.Peers[0], key, "author")
	w.SetCheckpointProduction(false)
	commit(t, w, boundaries*interval)

	waitPointer(t, c, key, boundaries*interval)
	snap := counters(c)
	// One fallback production per boundary: the cap forces every
	// intermediate boundary to be published on the way to the newest.
	if snap["fallback-checkpoints"] < boundaries {
		t.Fatalf("pointer reached %d with only %d fallback productions, want one per boundary (%d): %v",
			boundaries*interval, snap["fallback-checkpoints"], boundaries, snap)
	}
}

// TestFallbackPublishesEveryBoundary: with a catch-up cap WIDER than one
// interval, the fallback producer must still publish every intermediate
// boundary inside the window — the complete chain history navigation
// needs — not just the capped pass's newest one.
func TestFallbackPublishesEveryBoundary(t *testing.T) {
	const (
		interval = 2
		// The whole gap fits in one pass: before the fix this published
		// only the newest boundary and the chain had holes.
		boundaries = maintain.DefaultMaxCatchupIntervals
	)
	c := newMaintCluster(t, 5, interval, maintain.Config{TruncateEvery: time.Hour})
	key := "chain-history"
	w := core.NewReplica(c.Peers[0], key, "author")
	w.SetCheckpointProduction(false)
	commit(t, w, boundaries*interval)

	waitPointer(t, c, key, boundaries*interval)
	ctx := context.Background()
	for b := uint64(interval); b <= boundaries*interval; b += interval {
		cp, err := c.Peers[0].Ckpt.Fetch(ctx, key, b)
		if err != nil {
			t.Fatalf("boundary %d missing from the checkpoint chain: %v", b, err)
		}
		if cp.TS != b {
			t.Fatalf("boundary %d fetched snapshot at ts %d", b, cp.TS)
		}
	}
	if snap := counters(c); snap["fallback-checkpoints"] < boundaries {
		t.Fatalf("complete chain needs %d fallback productions, counters: %v", boundaries, snap)
	}
}

// TestDiscoveryResurrectsLostEntryChain: crash the Master-key peer AND
// its successor at once, so the key's whole KTS entry chain — primary
// entry plus the replicated copy — dies with them. No client traffic
// follows: the maintenance discovery pass alone must notice the key
// (its log slots still name it in surviving stores) and rebuild the
// entry from the log, so the total order continues where it left off.
func TestDiscoveryResurrectsLostEntryChain(t *testing.T) {
	const interval = 4
	clk := newTestClock()
	c := newMaintCluster(t, 7, interval, maintain.Config{TruncateEvery: time.Hour, Now: clk.Now})
	key := "lost-chain"
	master := c.MasterOf(uint64(ids.HashTS(key)))
	succAddr := master.Node.Successor().Addr
	var succ *core.Peer
	for _, p := range c.Peers {
		if string(p.Addr()) == succAddr {
			succ = p
		}
	}
	if succ == nil || succ == master {
		t.Fatalf("no distinct successor for master %s", master)
	}
	var host *core.Peer
	for _, p := range c.Peers {
		if p != master && p != succ {
			host = p
			break
		}
	}
	w := core.NewReplica(host, key, "author")
	last := commit(t, w, 3)

	c.Crash(master)
	c.Crash(succ)

	liveLastTS := func() (uint64, bool) {
		for _, p := range c.Live() {
			if ts, ok := p.KTS.LastTSLocal(key); ok {
				return ts, true
			}
		}
		return 0, false
	}
	// Each poll moves the engine clock past the discovery throttle: the
	// test wants the discovery latency, not the throttle.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if counters(c)["keys-discovered"] >= 1 {
			if ts, ok := liveLastTS(); ok && ts == last {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry chain never resurrected by discovery; counters %v", counters(c))
		}
		clk.advance(maintain.DefaultDiscoverEvery)
		time.Sleep(10 * time.Millisecond)
	}

	// The resurrected entry carries the authoritative last-ts: the next
	// commit extends the total order instead of restarting it.
	if ts := commit(t, w, 1); ts != last+1 {
		t.Fatalf("post-resurrection commit got ts %d, want %d", ts, last+1)
	}
}

// TestKeepIntervalsMargin: with a safety margin configured, automatic
// truncation holds back the newest KeepIntervals*Interval timestamps so
// briefly-lagging editors can still retrieve the patches OT needs.
func TestKeepIntervalsMargin(t *testing.T) {
	const interval = 4
	c := newMaintCluster(t, 5, interval, maintain.Config{
		TruncateEvery: time.Millisecond,
		KeepIntervals: 1,
	})
	key := "margin"
	ctx := context.Background()
	w := core.NewReplica(c.Peers[0], key, "author")
	commit(t, w, interval)
	waitPointer(t, c, key, interval)

	// An editor synced to the first boundary parks a tentative edit.
	r := core.NewReplica(c.Peers[2], key, "laggard")
	if err := r.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(0, "tentative"); err != nil {
		t.Fatal(err)
	}

	commit(t, w, interval)
	waitPointer(t, c, key, 2*interval)

	// [1, interval] becomes reclaimable (pointer minus the margin);
	// (interval, 2*interval] — the patches the laggard's OT needs —
	// must survive. Poll the counter and inspect primary stores directly:
	// probing via Log.Exists would read-repair a mid-sweep timestamp and
	// resurrect the very slots the engine just reclaimed.
	deadline := time.Now().Add(20 * time.Second)
	for counters(c)["truncations"] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("margin truncation never ran; counters %v", counters(c))
		}
		time.Sleep(10 * time.Millisecond)
	}
	reclaimed := 0
	for ts := uint64(1); ts <= interval; ts++ {
		reclaimed += tsSlots(c, key, ts)
	}
	if replicas := c.Peers[0].Log.Replicas(); reclaimed > replicas {
		t.Fatalf("%d slot replicas left below the margin, allow at most %d stragglers", reclaimed, replicas)
	}
	for ts := uint64(interval + 1); ts <= 2*interval; ts++ {
		if tsSlots(c, key, ts) == 0 {
			t.Fatalf("ts %d inside the safety margin was reclaimed", ts)
		}
	}
	// The lagging editor catches up losslessly — no ErrTruncated, no
	// rebase.
	if _, err := r.Commit(ctx); err != nil {
		t.Fatalf("lagging commit inside the margin: %v", err)
	}
	if r.Rebases() != 0 {
		t.Fatalf("margin commit needed %d rebases", r.Rebases())
	}
}
