package gateway_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/ids"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/patch"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

// twice runs a virtual-time scenario two times, each on a cluster of its
// own, and requires both runs to report the same thing.
func twice(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	var got [2]string
	for i := range got {
		t.Run(fmt.Sprintf("run%d", i+1), func(t *testing.T) { got[i] = scenario(t) })
	}
	if !t.Failed() && got[0] != got[1] {
		t.Fatalf("same scenario, different results:\n%s\n%s", got[0], got[1])
	}
}

// netDelay gives every message a delay, so that a log read takes
// virtual time and a second reader can arrive while it is in flight.
var netDelay = transport.WithLatency(transport.ConstantLatency(5 * time.Millisecond))

// commitLines commits n one-line patches through rep, one Commit each.
func commitLines(t *testing.T, rep *core.Replica, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := rep.Insert(0, fmt.Sprintf("%s-%02d", prefix, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Commit(context.Background()); err != nil {
			t.Fatalf("commit %s-%02d: %v", prefix, i, err)
		}
	}
}

func gwCount(g *gateway.Gateway, name string) int64 { return g.Counters().Counter(name).Value() }

// TestColdFollowerWindowedCatchUp: a cold follower on a 20-record log with
// no checkpoint shows the backlog as it shrinks — a snapshot after every
// window of 1, 1, 2, 4, 8 records — and is through it in at most 7 fetch
// round trips, where one record per round trip took 20.
func TestColdFollowerWindowedCatchUp(t *testing.T) {
	twice(t, func(t *testing.T) string {
		c, clk := newCluster(t, 8, ringtest.FastOptions(), netDelay)
		ctx := context.Background()
		const records = 20
		commitLines(t, core.NewReplica(c.Peers[1], "doc", "w"), records, "l")

		// What one fetch round trip costs from the gateway's host.
		host := c.Peers[4]
		var roundTrip time.Duration
		for ts := uint64(1); ts <= records; ts++ {
			began := clk.Now()
			if _, err := host.Log.Fetch(ctx, "doc", ts); err != nil {
				t.Fatal(err)
			}
			roundTrip = max(roundTrip, clk.Since(began))
		}

		type delivery struct {
			ts uint64
			at time.Duration
		}
		var (
			mu       sync.Mutex
			delivers []delivery
		)
		mounted := clk.Now()
		cfg := gwConfig()
		cfg.OnDeliver = func(_ string, ts uint64) {
			mu.Lock()
			delivers = append(delivers, delivery{ts, clk.Since(mounted)})
			mu.Unlock()
		}
		gw := gateway.New(host, cfg)
		t.Cleanup(gw.Close)
		viewer := gw.Session("r").Follower("doc")
		waitUntil(t, clk, 30*time.Second, "cold follower to reach the end of the log", func() bool {
			return viewer.TS() == records
		})

		mu.Lock()
		defer mu.Unlock()
		for i, d := range delivers {
			if i > 0 && d.ts <= delivers[i-1].ts {
				t.Fatalf("snapshots not increasing: %v", delivers)
			}
		}
		if n := len(delivers); n < 4 || n > 7 {
			t.Fatalf("want at least 3 snapshots before the last and at most 7 fetch round trips, got %d: %v", n, delivers)
		}
		last := delivers[len(delivers)-1]
		if last.ts != records {
			t.Fatalf("last snapshot at ts %d, want %d", last.ts, records)
		}
		// One tick to start, one pointer read, seven windows.
		if budget := cfg.BatchTick + 8*roundTrip; last.at > budget {
			t.Fatalf("caught up after %v; 7 round trips of %v allow %v", last.at, roundTrip, budget)
		}
		if n := gwCount(gw, "tail-misses"); n != records {
			t.Fatalf("tail-misses = %d, want every one of %d records fetched once", n, records)
		}
		return fmt.Sprint(delivers)
	})
}

// TestOneFetchPerRecordPerGateway: eight editors of one document on one
// gateway are its one writer, and the writer and the gateway's feed both
// read the document's log — what a second gateway commits, and the
// writer's own commits whenever the feed's read outruns the ack. The
// writer's read is shared with the feed; the feed's probe is awaited by
// nobody, so at worst the two cross and a record is fetched twice —
// never once per reader.
func TestOneFetchPerRecordPerGateway(t *testing.T) {
	twice(t, func(t *testing.T) string {
		c, clk := newCluster(t, 8, ringtest.FastOptions(), netDelay)
		ctx := context.Background()
		gwA := gateway.New(c.Peers[0], gwConfig())
		t.Cleanup(gwA.Close)
		gwB := gateway.New(c.Peers[4], gwConfig())
		t.Cleanup(gwB.Close)

		const editors, rounds = 8, 6
		var eds []*gateway.Editor
		for i := 0; i < editors; i++ {
			eds = append(eds, gwA.Session("a").Editor("doc", fmt.Sprintf("a%d", i)))
		}
		remote := gwB.Session("b").Editor("doc", "b")
		viewer := gwA.Session("a").Follower("doc")
		calls0 := c.Peers[0].Client.Counters().Counter("calls").Value()

		for r := 0; r < rounds; r++ {
			remote.Enqueue(fmt.Sprintf("b-%d", r))
			for i, ed := range eds {
				ed.Enqueue(fmt.Sprintf("a%d-%d", i, r))
			}
			_ = clk.Sleep(ctx, 300*time.Millisecond)
		}
		const lines = rounds * (editors + 1)
		waitUntil(t, clk, 120*time.Second, "every line to commit", func() bool {
			return gwCount(gwA, "batched-ops")+gwCount(gwB, "batched-ops") == lines
		})
		writer := eds[0]
		final := max(remote.Replica().CommittedTS(), writer.Replica().CommittedTS())
		own := writer.Commits()
		waitUntil(t, clk, 10*time.Second, "the feed to reach the final ts", func() bool {
			return viewer.TS() == final
		})

		misses, hits := gwCount(gwA, "tail-misses"), gwCount(gwA, "tail-hits")
		if misses > 2*int64(final) {
			t.Fatalf("gateway fetched %d records from the DHT; the log has %d", misses, final)
		}
		// The feed spends up to seven calls per record it publishes: one
		// parked read, a read of the record's three slots, and a three-slot
		// probe of the next timestamp. The writer reads through the tail;
		// unshared, it would read the three slots of every record it did
		// not commit.
		feed := 7 * int64(final)
		unshared := 3 * (int64(final) - own)
		calls := c.Peers[0].Client.Counters().Counter("calls").Value() - calls0
		if calls-feed > unshared/2 {
			t.Fatalf("%d DHT client calls, %d of them the feed's; a writer reading a log of %d unshared costs %d",
				calls, feed, final, unshared)
		}
		if remote.Commits() == 0 || hits < misses {
			t.Fatalf("scenario too thin: %d remote commits, %d tail hits, %d misses", remote.Commits(), hits, misses)
		}
		if n := gwCount(gwA, "tail-conflicts") + gwCount(gwB, "tail-conflicts"); n != 0 {
			t.Fatalf("%d tail conflicts on a healthy ring", n)
		}

		text, _ := viewer.Read()
		for _, ed := range append(eds, remote) {
			if err := ed.Replica().Pull(ctx); err != nil {
				t.Fatal(err)
			}
			if got := ed.Replica().CommittedText(); got != text {
				t.Fatalf("replica %s diverged:\n%q\n%q", ed.Replica().Site(), got, text)
			}
		}
		return fmt.Sprintf("final=%d misses=%d hits=%d calls=%d\n%s", final, misses, hits, calls, text)
	})
}

// TestReaderBehindTheRingFallsBackToLog: an editor 20 records behind a
// ring of 8 gets the log's own windowed retrieval and converges.
func TestReaderBehindTheRingFallsBackToLog(t *testing.T) {
	twice(t, func(t *testing.T) string {
		c, clk := newCluster(t, 8, ringtest.FastOptions(), netDelay)
		gw := gateway.New(c.Peers[0], gwConfig())
		t.Cleanup(gw.Close)
		sess := gw.Session("s")
		ed := sess.Editor("doc", "late") // opened now, still at ts 0 when it first commits
		viewer := sess.Follower("doc")

		const records = 20
		writer := core.NewReplica(c.Peers[3], "doc", "w")
		commitLines(t, writer, records, "l")
		waitUntil(t, clk, 30*time.Second, "the feed to fill the ring", func() bool {
			return viewer.TS() == records
		})
		before := gwCount(gw, "tail-misses")

		ed.Enqueue("late-line")
		waitUntil(t, clk, 30*time.Second, "the late editor to commit", func() bool {
			return ed.Commits() == 1
		})
		if err := ed.Err(); err != nil {
			t.Fatal(err)
		}
		if ts := ed.Replica().CommittedTS(); ts != records+1 {
			t.Fatalf("late editor committed at ts %d, want %d", ts, records+1)
		}
		if fetched := gwCount(gw, "tail-misses") - before; fetched < records {
			t.Fatalf("a reader %d behind fetched %d records from the log", records, fetched)
		}
		if err := writer.Pull(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := ed.Replica().CommittedText(), writer.CommittedText(); got != want {
			t.Fatalf("late editor diverged:\n%q\n%q", got, want)
		}
		return ed.Replica().CommittedText()
	})
}

// slowHost delays every message to or from one peer by slow and every
// other message by fast.
type slowHost struct {
	host       transport.Addr
	slow, fast time.Duration
}

func (l slowHost) Delay(from, to transport.Addr) time.Duration {
	if from == l.host || to == l.host {
		return l.slow
	}
	return l.fast
}

// TestWaiterRereadsAfterMiss: a reader's miss is never shared. The waiter
// queued behind a read that came back ErrMissing reads again for itself
// and finds the record that was published while the first read was out.
func TestWaiterRereadsAfterMiss(t *testing.T) {
	twice(t, func(t *testing.T) string {
		// The gateway's host is far from everybody (60 ms each way), the
		// rest of the ring close (1 ms): a read from the host takes
		// seconds, a publish from elsewhere lands inside one of its hops.
		lat := &slowHost{slow: 60 * time.Millisecond, fast: time.Millisecond}
		c, clk := newCluster(t, 8, ringtest.FastOptions(), transport.WithLatency(lat))
		ctx := context.Background()
		// A host that owns none of the record's three slots, so every
		// slot read crosses the slow link.
		owners := map[*core.Peer]bool{}
		for i := 0; i < p2plog.DefaultReplicas; i++ {
			owners[c.MasterOf(uint64(ids.ReplicaHash(i, "doc", 1)))] = true
		}
		var host, publisher *core.Peer
		for _, p := range c.Peers {
			switch {
			case owners[p]:
			case host == nil:
				host = p
			case publisher == nil:
				publisher = p
			}
		}
		lat.host = host.Addr()

		// The feed must not probe while the two readers are out.
		gw := gateway.New(host, gateway.Config{BatchTick: time.Hour})
		t.Cleanup(gw.Close)
		gw.Session("s").Follower("doc")

		slotMisses := func() (n int64) {
			for _, p := range c.Peers {
				n += p.DHT.Counters().Counter("get-misses").Value()
			}
			return n
		}
		type result struct {
			recs []p2plog.Record
			err  error
			done bool
		}
		var (
			mu            sync.Mutex
			first, waiter result
		)
		read := func(into *result) func() {
			return func() {
				recs, err := gw.FetchRange(ctx, "doc", 0, 1)
				mu.Lock()
				*into = result{recs, err, true}
				mu.Unlock()
			}
		}
		base := slotMisses()
		clk.Go(read(&first))
		_ = clk.Sleep(ctx, 5*time.Millisecond)
		clk.Go(read(&waiter))

		// All three slots have answered "empty" to the first reader; the
		// last answer is still on the slow link. Publish now.
		for slotMisses() < base+p2plog.DefaultReplicas {
			_ = clk.Sleep(ctx, 5*time.Millisecond)
		}
		enc, err := patch.Patch{ID: "w#1", Author: "w", Ops: []patch.Op{{Kind: patch.OpInsert, Line: "x"}}}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := publisher.Log.Publish(ctx, p2plog.Record{Key: "doc", TS: 1, PatchID: "w#1", Patch: enc}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		early := first.done
		mu.Unlock()
		if early {
			t.Fatal("the first read returned before the publish finished; the scenario needs it still in flight")
		}
		waitUntil(t, clk, 30*time.Second, "both readers to return", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return first.done && waiter.done
		})

		mu.Lock()
		defer mu.Unlock()
		if !errors.Is(first.err, p2plog.ErrMissing) || len(first.recs) != 0 {
			t.Fatalf("first reader: %d records, err %v; want ErrMissing", len(first.recs), first.err)
		}
		if waiter.err != nil || len(waiter.recs) != 1 || waiter.recs[0].PatchID != "w#1" {
			t.Fatalf("waiter: %v, err %v; want the record published meanwhile", waiter.recs, waiter.err)
		}
		// Had the waiter not queued, its own three slot reads would have
		// run beside the first reader's and come back empty too.
		return fmt.Sprintf("slot misses %d, tail-misses %d", slotMisses()-base, gwCount(gw, "tail-misses"))
	})
}

// TestAckHandsOverPublishedBytes: the record an ack files in the tail is
// byte for byte what Log.Fetch returns for that timestamp.
func TestAckHandsOverPublishedBytes(t *testing.T) {
	twice(t, func(t *testing.T) string {
		c, clk := newCluster(t, 8, ringtest.FastOptions(), netDelay)
		ctx := context.Background()
		gw := gateway.New(c.Peers[0], gwConfig())
		t.Cleanup(gw.Close)
		sess := gw.Session("s")
		ed := sess.Editor("doc", "w")
		viewer := sess.Follower("doc")
		const commits = 3
		for i := 0; i < commits; i++ {
			ed.Enqueue(fmt.Sprintf("line-%d", i))
			waitUntil(t, clk, 30*time.Second, "the commit", func() bool { return ed.Commits() == int64(i+1) })
		}
		waitUntil(t, clk, 10*time.Second, "the feed to publish the commits", func() bool { return viewer.TS() == commits })

		handed, err := gw.FetchRange(ctx, "doc", 0, commits)
		if err != nil || len(handed) != commits {
			t.Fatalf("tail holds %d records, err %v", len(handed), err)
		}
		out := ""
		for _, h := range handed {
			logged, err := c.Peers[5].Log.Fetch(ctx, "doc", h.TS)
			if err != nil {
				t.Fatal(err)
			}
			if h.Key != logged.Key || h.PatchID != logged.PatchID || !bytes.Equal(h.Patch, logged.Patch) {
				t.Fatalf("ts %d: the ack handed over %+v, the log holds %+v", h.TS, h, logged)
			}
			out += fmt.Sprintf("%d:%s:%x\n", h.TS, h.PatchID, h.Patch)
		}
		return out
	})
}

// TestConflictingInsertKeepsFirst: two patches at one timestamp is the
// duplicate-grant defect. The tail keeps the first, counts the second and
// flight-records it.
func TestConflictingInsertKeepsFirst(t *testing.T) {
	twice(t, func(t *testing.T) string {
		opts := ringtest.FastOptions()
		opts.FlightRecorder = 16
		c, _ := newCluster(t, 4, opts)
		gw := gateway.New(c.Peers[0], gateway.Config{BatchTick: time.Hour})
		t.Cleanup(gw.Close)
		gw.Session("s").Follower("doc")

		rec := func(id string) p2plog.Record {
			enc, err := patch.Patch{ID: id, Author: id, Ops: []patch.Op{{Kind: patch.OpInsert, Line: id}}}.Encode()
			if err != nil {
				t.Fatal(err)
			}
			return p2plog.Record{Key: "doc", TS: 1, PatchID: id, Patch: enc}
		}
		gw.Committed(rec("first#1"))
		gw.Committed(rec("first#1")) // the same patch again is no conflict
		gw.Committed(rec("second#1"))

		if n := gwCount(gw, "tail-conflicts"); n != 1 {
			t.Fatalf("tail-conflicts = %d, want 1", n)
		}
		kept, err := gw.FetchRange(context.Background(), "doc", 0, 1)
		if err != nil || len(kept) != 1 || kept[0].PatchID != "first#1" {
			t.Fatalf("tail kept %v (err %v), want the first patch", kept, err)
		}
		out := ""
		for _, ev := range c.Peers[0].Flight.Events() {
			if ev.Kind == "tail-conflict" {
				out += ev.Key + " " + ev.Detail + "\n"
			}
		}
		if out != "doc ts=1 kept=first#1 dropped=second#1\n" {
			t.Fatalf("flight record of the conflict: %q", out)
		}
		return out
	})
}
