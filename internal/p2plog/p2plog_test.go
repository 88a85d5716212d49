package p2plog_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
)

func newCluster(t *testing.T, n int) *ringtest.Cluster {
	t.Helper()
	c := ringtest.NewVirtualCluster(n, core.Options{})
	t.Cleanup(c.Close)
	return c
}

func TestPublishFetchRoundTrip(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	log := c.Peers[0].Log
	rec := p2plog.Record{Key: "doc", TS: 1, PatchID: "u#1", Patch: []byte("payload")}
	stored, err := log.Publish(ctx, rec)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if stored != ids.Replicas {
		t.Fatalf("stored %d replicas, want %d", stored, ids.Replicas)
	}
	// Any peer can fetch.
	for _, p := range c.Peers {
		got, err := p.Log.Fetch(ctx, "doc", 1)
		if err != nil {
			t.Fatalf("fetch from %s: %v", p, err)
		}
		if got.PatchID != "u#1" || string(got.Patch) != "payload" {
			t.Fatalf("fetch: %+v", got)
		}
	}
}

func TestPublishIdempotent(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	log := c.Peers[0].Log
	rec := p2plog.Record{Key: "doc", TS: 1, PatchID: "u#1", Patch: []byte("p")}
	if _, err := log.Publish(ctx, rec); err != nil {
		t.Fatal(err)
	}
	stored, err := log.Publish(ctx, rec)
	if err != nil {
		t.Fatalf("republish: %v", err)
	}
	if stored != ids.Replicas {
		t.Fatalf("republish replicas = %d", stored)
	}
}

func TestPublishConflictDetected(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	log := c.Peers[0].Log
	if _, err := log.Publish(ctx, p2plog.Record{Key: "doc", TS: 1, PatchID: "a#1", Patch: []byte("A")}); err != nil {
		t.Fatal(err)
	}
	_, err := log.Publish(ctx, p2plog.Record{Key: "doc", TS: 1, PatchID: "b#1", Patch: []byte("B")})
	if !errors.Is(err, p2plog.ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	if !strings.Contains(err.Error(), "a#1") {
		t.Fatalf("conflict error %q does not name the occupant a#1", err)
	}
	// The committed slot is unchanged.
	rec, err := log.Fetch(ctx, "doc", 1)
	if err != nil || rec.PatchID != "a#1" {
		t.Fatalf("slot mutated: %+v %v", rec, err)
	}
}

func TestFetchMissing(t *testing.T) {
	c := newCluster(t, 3)
	_, err := c.Peers[0].Log.Fetch(context.Background(), "doc", 99)
	if !errors.Is(err, p2plog.ErrMissing) {
		t.Fatalf("want ErrMissing, got %v", err)
	}
	ok, err := c.Peers[0].Log.Exists(context.Background(), "doc", 99)
	if err != nil || ok {
		t.Fatalf("exists: %v %v", ok, err)
	}
}

func TestFetchRangeTotalOrder(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	log := c.Peers[0].Log
	for ts := uint64(1); ts <= 8; ts++ {
		rec := p2plog.Record{Key: "doc", TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := c.Peers[3].Log.FetchRange(ctx, "doc", 2, 7)
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, r := range recs {
		if r.TS != uint64(3+i) {
			t.Fatalf("out of order at %d: ts %d", i, r.TS)
		}
	}
	// Empty range.
	recs, err = log.FetchRange(ctx, "doc", 5, 5)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty range: %v %v", recs, err)
	}
	// Invalid range.
	if _, err := log.FetchRange(ctx, "doc", 7, 2); err == nil {
		t.Fatalf("inverted range accepted")
	}
}

func TestFetchRangeRefusesHoles(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	log := c.Peers[0].Log
	for _, ts := range []uint64{1, 2, 4} { // hole at 3
		if _, err := log.Publish(ctx, p2plog.Record{Key: "doc", TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := log.FetchRange(ctx, "doc", 0, 4)
	if !errors.Is(err, p2plog.ErrMissing) {
		t.Fatalf("hole not detected: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("prefix length %d, want 2", len(recs))
	}
}

// TestAvailabilityUnderLogPeerCrash is the paper's high-availability
// claim: with n replicas, patches survive Log-Peer failures.
func TestAvailabilityUnderLogPeerCrash(t *testing.T) {
	c := newCluster(t, 8)
	ctx := context.Background()
	log := c.Peers[0].Log
	const docs = 5
	for d := 0; d < docs; d++ {
		key := fmt.Sprintf("doc-%d", d)
		for ts := uint64(1); ts <= 4; ts++ {
			rec := p2plog.Record{Key: key, TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte(key)}
			if _, err := log.Publish(ctx, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash two peers chosen so that every record keeps at least one
	// replica on a live peer (with n=3 replicas and two failures, that is
	// the case the paper's availability claim covers; losing all three is
	// beyond the replication factor by construction).
	placements := make(map[string][]string) // record -> peer addrs of replicas
	for d := 0; d < docs; d++ {
		key := fmt.Sprintf("doc-%d", d)
		for ts := uint64(1); ts <= 4; ts++ {
			rk := fmt.Sprintf("%s@%d", key, ts)
			for i := 0; i < ids.Replicas; i++ {
				owner := c.MasterOf(uint64(ids.LogSlot(key, ts).Pos(i)))
				placements[rk] = append(placements[rk], string(owner.Addr()))
			}
		}
	}
	victims := findSafeVictims(c, placements)
	if victims == nil {
		t.Skip("no victim pair leaves all records available (unlucky hash placement)")
	}
	c.Crash(victims[0])
	c.Crash(victims[1])
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	reader := c.Live()[0].Log
	cctx, cancel := c.Clk.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for d := 0; d < docs; d++ {
		key := fmt.Sprintf("doc-%d", d)
		recs, err := reader.FetchRange(cctx, key, 0, 4)
		if err != nil {
			t.Fatalf("after crashes, range %s: %v", key, err)
		}
		if len(recs) != 4 {
			t.Fatalf("after crashes, %s: %d records", key, len(recs))
		}
	}
}

// findSafeVictims returns two distinct peers whose simultaneous crash
// leaves every record with at least one live replica, or nil.
func findSafeVictims(c *ringtest.Cluster, placements map[string][]string) []*core.Peer {
	peers := c.Peers
	for i := 0; i < len(peers); i++ {
		for j := i + 1; j < len(peers); j++ {
			dead := map[string]bool{string(peers[i].Addr()): true, string(peers[j].Addr()): true}
			ok := true
			for _, addrs := range placements {
				alive := 0
				for _, a := range addrs {
					if !dead[a] {
						alive++
					}
				}
				if alive == 0 {
					ok = false
					break
				}
			}
			if ok {
				return []*core.Peer{peers[i], peers[j]}
			}
		}
	}
	return nil
}

func TestReplicaSlotsSpreadAcrossPeers(t *testing.T) {
	// The Hr family must place the replicas of one (key, ts) at multiple
	// distinct ring positions (pairwise independence in practice).
	key, ts := "doc", uint64(1)
	positions := map[ids.ID]bool{}
	for i := 0; i < ids.Replicas; i++ {
		positions[ids.LogSlot(key, ts).Pos(i)] = true
	}
	if len(positions) != ids.Replicas {
		t.Fatalf("replica positions collide: %v", positions)
	}
}

// TestReadRepairRestoresMissingReplicas: delete two of three replica
// slots directly, fetch once, and verify the slots are repopulated at
// their owners.
func TestReadRepairRestoresMissingReplicas(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	log := c.Peers[0].Log
	rec := p2plog.Record{Key: "repair-doc", TS: 1, PatchID: "u#1", Patch: []byte("x")}
	if _, err := log.Publish(ctx, rec); err != nil {
		t.Fatal(err)
	}
	// Remove replicas 1 and 2 from every store (simulating loss).
	for i := 1; i <= 2; i++ {
		pos := ids.LogSlot("repair-doc", 1).Pos(i)
		for _, p := range c.Peers {
			p.DHT.Store().Delete(pos)
			p.DHT.ReplicaStore().Delete(pos)
		}
	}
	if _, err := c.Peers[3].Log.Fetch(ctx, "repair-doc", 1); err != nil {
		t.Fatalf("fetch with one surviving replica: %v", err)
	}
	// The fetch must have restored the missing slots at current owners.
	for i := 1; i <= 2; i++ {
		pos := ids.LogSlot("repair-doc", 1).Pos(i)
		if _, err := c.WaitUntil(5*time.Second, fmt.Sprintf("replica %d to be repaired", i), func() bool {
			for _, p := range c.Peers {
				if _, ok := p.DHT.Store().Get(pos); ok {
					return true
				}
			}
			return false
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFetchRangePrefetchWindows: ranges shorter than, equal to and
// straddling the 8-record prefetch window all come back whole and in
// total order, and a hole on either side of a window edge stops the
// result at the ordered prefix before it.
func TestFetchRangePrefetchWindows(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	log := c.Peers[0].Log
	publish := func(key string, ts uint64) {
		t.Helper()
		rec := p2plog.Record{Key: key, TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	for ts := uint64(1); ts <= 13; ts++ {
		publish("win-doc", ts)
	}
	reader := c.Peers[2].Log
	for _, n := range []uint64{1, 8, 9, 13} {
		recs, err := reader.FetchRange(ctx, "win-doc", 0, n)
		if err != nil {
			t.Fatalf("%d records: %v", n, err)
		}
		if uint64(len(recs)) != n {
			t.Fatalf("%d records: got %d", n, len(recs))
		}
		for i, r := range recs {
			if r.TS != uint64(i+1) {
				t.Fatalf("%d records: order broken at %d: ts %d", n, i, r.TS)
			}
		}
	}
	// Holes at the last timestamp of the first window and at the first
	// timestamp of the second.
	for _, hole := range []uint64{8, 9} {
		key := fmt.Sprintf("edge-doc-%d", hole)
		for ts := uint64(1); ts <= 13; ts++ {
			if ts != hole {
				publish(key, ts)
			}
		}
		recs, err := reader.FetchRange(ctx, key, 0, 13)
		if !errors.Is(err, p2plog.ErrMissing) {
			t.Fatalf("hole at %d not reported: %v", hole, err)
		}
		if uint64(len(recs)) != hole-1 {
			t.Fatalf("hole at %d: prefix of %d records, want %d", hole, len(recs), hole-1)
		}
		for i, r := range recs {
			if r.TS != uint64(i+1) {
				t.Fatalf("hole at %d: prefix order broken at %d: ts %d", hole, i, r.TS)
			}
		}
	}
}

// TestFetchRangeParallelHoleStopsPrefix: holes abort with the ordered
// prefix even when fetched in parallel windows.
func TestFetchRangeParallelHoleStopsPrefix(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	log := c.Peers[0].Log
	for _, ts := range []uint64{1, 2, 3, 5, 6} { // hole at 4
		if _, err := log.Publish(ctx, p2plog.Record{Key: "hole-doc", TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := log.FetchRange(ctx, "hole-doc", 0, 6)
	if !errors.Is(err, p2plog.ErrMissing) {
		t.Fatalf("hole not reported: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("prefix %d, want 3", len(recs))
	}
	for i, r := range recs {
		if r.TS != uint64(i+1) {
			t.Fatalf("prefix order broken: %v", recs)
		}
	}
}

// TestFetchFallsBackWhenFirstReplicaMissing: retrieval must survive the
// FIRST Hr replica being gone (not just a middle one) — this is the path
// a partially applied truncation leaves behind, and the one
// checkpoint-gated truncation must never break for the live tail.
func TestFetchFallsBackWhenFirstReplicaMissing(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	log := c.Peers[0].Log
	rec := p2plog.Record{Key: "fb-doc", TS: 1, PatchID: "u#1", Patch: []byte("x")}
	if _, err := log.Publish(ctx, rec); err != nil {
		t.Fatal(err)
	}
	pos := ids.LogSlot("fb-doc", 1).Pos(0)
	for _, p := range c.Peers {
		p.DHT.Store().Delete(pos)
		p.DHT.ReplicaStore().Delete(pos)
	}
	got, err := c.Peers[4].Log.Fetch(ctx, "fb-doc", 1)
	if err != nil {
		t.Fatalf("fetch with first replica down: %v", err)
	}
	if got.PatchID != "u#1" {
		t.Fatalf("fetched %+v", got)
	}
}

// TestTruncatePreservesLiveTail: TruncateTo from 0 removes exactly [1, upToTS];
// the tail keeps its write-once slots and total-order retrieval.
func TestTruncatePreservesLiveTail(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	log := c.Peers[0].Log
	for ts := uint64(1); ts <= 6; ts++ {
		rec := p2plog.Record{Key: "tr-doc", TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	deleted, err := log.TruncateTo(ctx, "tr-doc", 0, 4)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if deleted != 4*ids.Replicas {
		t.Fatalf("deleted %d slot replicas, want %d", deleted, 4*ids.Replicas)
	}
	for ts := uint64(1); ts <= 4; ts++ {
		if ok, err := log.Exists(ctx, "tr-doc", ts); err != nil || ok {
			t.Fatalf("ts %d survived truncation (ok=%v err=%v)", ts, ok, err)
		}
	}
	recs, err := c.Peers[3].Log.FetchRange(ctx, "tr-doc", 4, 6)
	if err != nil || len(recs) != 2 {
		t.Fatalf("tail range: %d recs, %v", len(recs), err)
	}
	// Retrieval across the truncation boundary correctly refuses: the
	// hole is real, and total order forbids skipping it.
	if _, err := log.FetchRange(ctx, "tr-doc", 0, 6); !errors.Is(err, p2plog.ErrMissing) {
		t.Fatalf("range across truncation: %v", err)
	}
	// The truncated slots are gone from every peer's stores (storage
	// actually reclaimed, not just unreachable).
	for ts := uint64(1); ts <= 4; ts++ {
		for i := 0; i < ids.Replicas; i++ {
			pos := ids.LogSlot("tr-doc", ts).Pos(i)
			for _, p := range c.Peers {
				if _, ok := p.DHT.Store().Get(pos); ok {
					t.Fatalf("primary slot (ts=%d, r=%d) still stored at %s", ts, i, p)
				}
			}
		}
	}
}

// TestTruncateRangeRespectsLowWaterMark: TruncateTo sweeps exactly
// (afterTS, upToTS] on top of an earlier sweep to afterTS, the contract
// periodic maintenance relies on to keep each sweep O(new history).
func TestTruncateRangeRespectsLowWaterMark(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	log := c.Peers[0].Log
	for ts := uint64(1); ts <= 8; ts++ {
		rec := p2plog.Record{Key: "lw-doc", TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	// The earlier sweep TruncateTo(4, 6) asserts: [1, 4] already reclaimed.
	if _, err := log.TruncateTo(ctx, "lw-doc", 0, 4); err != nil {
		t.Fatalf("truncate to the mark: %v", err)
	}
	deleted, err := log.TruncateTo(ctx, "lw-doc", 4, 6)
	if err != nil {
		t.Fatalf("truncate range: %v", err)
	}
	if deleted != 2*ids.Replicas {
		t.Fatalf("deleted %d slot replicas, want %d", deleted, 2*ids.Replicas)
	}
	for ts := uint64(5); ts <= 6; ts++ {
		if ok, err := log.Exists(ctx, "lw-doc", ts); err != nil || ok {
			t.Fatalf("ts %d in range survived (ok=%v err=%v)", ts, ok, err)
		}
	}
	// Above the range: untouched.
	for ts := uint64(7); ts <= 8; ts++ {
		if ok, err := log.Exists(ctx, "lw-doc", ts); err != nil || !ok {
			t.Fatalf("ts %d above the range was swept (ok=%v err=%v)", ts, ok, err)
		}
	}
	// An empty range is a no-op.
	if deleted, err := log.TruncateTo(ctx, "lw-doc", 6, 6); err != nil || deleted != 0 {
		t.Fatalf("empty range: deleted=%d err=%v", deleted, err)
	}
}

// TestTruncatePaysPerLogPeer: a delete's reply vouches for its peer's
// whole arc, so truncating 64 timestamps on 8 peers reclaims all 192
// slots — each counted once, none left behind — with at most 48 delete
// RPCs (two windows' worth) instead of one per slot.
func TestTruncatePaysPerLogPeer(t *testing.T) {
	const depth = 64
	c := newCluster(t, 8)
	ctx := context.Background()
	log := c.Peers[0].Log
	for ts := uint64(1); ts <= depth; ts++ {
		rec := p2plog.Record{Key: "arc-doc", TS: ts, PatchID: fmt.Sprintf("u#%d", ts), Patch: []byte{byte(ts)}}
		if _, err := log.Publish(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	deletes := func() (n int64) {
		for _, p := range c.Peers {
			n += p.DHT.Counters().Counter("deletes").Value()
		}
		return n
	}
	before := deletes()
	deleted, err := log.TruncateTo(ctx, "arc-doc", 0, depth)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	rpcs := deletes() - before
	t.Logf("%d delete RPCs reclaimed %d slots", rpcs, deleted)
	for _, p := range c.Peers {
		for _, e := range p.DHT.Store().SnapshotMeta() {
			if key, ts, ok := ids.ParseLogSlotName(e.Key); ok && key == "arc-doc" && ts <= depth {
				t.Errorf("%s still holds primary %s", p, e.Key)
			}
		}
	}
	if deleted != depth*ids.Replicas {
		t.Errorf("deleted %d slots, want %d", deleted, depth*ids.Replicas)
	}
	if rpcs > 48 {
		t.Errorf("%d delete RPCs, want at most 48", rpcs)
	}
}
