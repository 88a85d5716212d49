package kts_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

func newCluster(t *testing.T, n int) *ringtest.Cluster {
	t.Helper()
	c := ringtest.NewVirtualCluster(n, core.Options{})
	t.Cleanup(c.Close)
	return c
}

// askMaster sends req from node to the current master of key, retrying
// on the cluster clock while the call fails or the answer says the
// receiver is not the master.
func askMaster(c *ringtest.Cluster, node *chord.Node, key string, req msg.Message, notMaster func(msg.Message) bool) (msg.Message, error) {
	ctx, cancel := c.Clk.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for attempt := 0; attempt < 20; attempt++ {
		master, _, err := node.FindSuccessor(ctx, ids.HashTS(key))
		if err != nil {
			return nil, fmt.Errorf("lookup master: %w", err)
		}
		resp, err := node.Call(ctx, transport.Addr(master.Addr), req)
		if err == nil && !notMaster(resp) {
			return resp, nil
		}
		_ = c.Clk.Sleep(ctx, 10*time.Millisecond)
	}
	return nil, fmt.Errorf("%T never reached a master", req)
}

// tryValidate sends a ValidateReq from peer index via transport to the
// current master of key.
func tryValidate(c *ringtest.Cluster, from int, key string, ts uint64, patchID string) (*msg.ValidateResp, error) {
	resp, err := askMaster(c, c.Peers[from].Node, key, &msg.ValidateReq{
		Key: key, TS: ts, Patch: []byte("patch-" + patchID), PatchID: patchID,
	}, func(m msg.Message) bool { return m.(*msg.ValidateResp).Status == msg.ValidateNotMaster })
	if err != nil {
		return nil, err
	}
	return resp.(*msg.ValidateResp), nil
}

func validate(t *testing.T, c *ringtest.Cluster, from int, key string, ts uint64, patchID string) *msg.ValidateResp {
	t.Helper()
	vr, err := tryValidate(c, from, key, ts, patchID)
	if err != nil {
		t.Fatal(err)
	}
	return vr
}

func lastTS(t *testing.T, c *ringtest.Cluster, key string) uint64 {
	t.Helper()
	resp, err := askMaster(c, c.Live()[0].Node, key, &msg.LastTSReq{Key: key},
		func(m msg.Message) bool { return m.(*msg.LastTSResp).NotMaster })
	if err != nil {
		t.Fatal(err)
	}
	return resp.(*msg.LastTSResp).LastTS
}

func TestContinuousTimestamps(t *testing.T) {
	c := newCluster(t, 5)
	key := "Main.WebHome"
	for i := uint64(0); i < 10; i++ {
		resp := validate(t, c, int(i)%len(c.Peers), key, i, fmt.Sprintf("u1#%d", i+1))
		if resp.Status != msg.ValidateOK {
			t.Fatalf("step %d: status %v lastTS %d", i, resp.Status, resp.LastTS)
		}
		if resp.ValidatedTS != i+1 {
			t.Fatalf("step %d: validated ts %d, want %d (continuity)", i, resp.ValidatedTS, i+1)
		}
	}
	if got := lastTS(t, c, key); got != 10 {
		t.Fatalf("last_ts = %d, want 10", got)
	}
}

func TestStaleClientIsToldBehind(t *testing.T) {
	c := newCluster(t, 4)
	key := "doc"
	if r := validate(t, c, 0, key, 0, "a#1"); r.Status != msg.ValidateOK {
		t.Fatalf("first: %v", r.Status)
	}
	// A second client still at ts 0 must be refused with the master's
	// last-ts so it can retrieve.
	r := validate(t, c, 1, key, 0, "b#1")
	if r.Status != msg.ValidateBehind {
		t.Fatalf("stale client got %v", r.Status)
	}
	if r.LastTS != 1 {
		t.Fatalf("behind lastTS = %d", r.LastTS)
	}
	// After catching up it succeeds.
	r = validate(t, c, 1, key, 1, "b#1")
	if r.Status != msg.ValidateOK || r.ValidatedTS != 2 {
		t.Fatalf("caught-up client: %v ts=%d", r.Status, r.ValidatedTS)
	}
}

func TestLastTSUnknownKey(t *testing.T) {
	c := newCluster(t, 3)
	if got := lastTS(t, c, "never-seen"); got != 0 {
		t.Fatalf("unknown key last_ts = %d", got)
	}
}

func TestConcurrentValidationSerializes(t *testing.T) {
	c := newCluster(t, 4)
	key := "contested"
	const writers = 8
	var mu sync.Mutex
	granted := map[uint64]string{}
	var workers []func()
	for w := 0; w < writers; w++ {
		workers = append(workers, func() {
			site := fmt.Sprintf("w%d", w)
			ts := uint64(0)
			for seq := 1; seq <= 5; {
				r, err := tryValidate(c, w%len(c.Peers), key, ts, fmt.Sprintf("%s#%d", site, seq))
				if err != nil {
					t.Error(err)
					return
				}
				switch r.Status {
				case msg.ValidateOK:
					mu.Lock()
					if prev, dup := granted[r.ValidatedTS]; dup {
						t.Errorf("ts %d granted to both %s and %s", r.ValidatedTS, prev, site)
					}
					granted[r.ValidatedTS] = site
					mu.Unlock()
					ts = r.ValidatedTS
					seq++
				case msg.ValidateBehind:
					ts = r.LastTS
				default:
					t.Errorf("unexpected status %v", r.Status)
					return
				}
			}
		})
	}
	c.Clk.Gather(workers...)
	// Exactly writers*5 grants, timestamps 1..writers*5 with no gaps.
	mu.Lock()
	defer mu.Unlock()
	if len(granted) != writers*5 {
		t.Fatalf("granted %d timestamps, want %d", len(granted), writers*5)
	}
	for ts := uint64(1); ts <= writers*5; ts++ {
		if _, ok := granted[ts]; !ok {
			t.Fatalf("gap at timestamp %d", ts)
		}
	}
}

func TestMasterCrashFailover(t *testing.T) {
	c := newCluster(t, 6)
	key := "failover-doc"
	for i := uint64(0); i < 3; i++ {
		if r := validate(t, c, 0, key, i, fmt.Sprintf("u#%d", i+1)); r.Status != msg.ValidateOK {
			t.Fatalf("pre-crash grant %d: %v", i, r.Status)
		}
	}
	// Crash the master.
	master := c.MasterOf(uint64(ids.HashTS(key)))
	c.Crash(master)
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The successor must take over with the replicated last-ts:
	// continuity demands the next timestamp is exactly 4.
	var from int
	for i, p := range c.Peers {
		if p.Node.Running() {
			from = i
			break
		}
	}
	r := validate(t, c, from, key, 3, "u#4")
	if r.Status != msg.ValidateOK {
		t.Fatalf("post-crash validate: %v lastTS=%d", r.Status, r.LastTS)
	}
	if r.ValidatedTS != 4 {
		t.Fatalf("post-crash ts = %d, want 4 (continuity across failover)", r.ValidatedTS)
	}
}

func TestMasterLeaveTransfersTimestamps(t *testing.T) {
	c := newCluster(t, 6)
	key := "leave-doc"
	for i := uint64(0); i < 3; i++ {
		if r := validate(t, c, 0, key, i, fmt.Sprintf("u#%d", i+1)); r.Status != msg.ValidateOK {
			t.Fatalf("grant %d: %v", i, r.Status)
		}
	}
	master := c.MasterOf(uint64(ids.HashTS(key)))
	if err := c.Leave(master); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var from int
	for i, p := range c.Peers {
		if p.Node.Running() {
			from = i
			break
		}
	}
	r := validate(t, c, from, key, 3, "u#4")
	if r.Status != msg.ValidateOK || r.ValidatedTS != 4 {
		t.Fatalf("post-leave: %v ts=%d", r.Status, r.ValidatedTS)
	}
}

func TestJoiningMasterReceivesTimestamps(t *testing.T) {
	c := newCluster(t, 4)
	key := "join-doc"
	for i := uint64(0); i < 5; i++ {
		if r := validate(t, c, 0, key, i, fmt.Sprintf("u#%d", i+1)); r.Status != msg.ValidateOK {
			t.Fatalf("grant %d: %v", i, r.Status)
		}
	}
	// Add peers until one of them becomes the master for the key (or
	// simply verify continuity regardless of who is master now).
	for i := 0; i < 4; i++ {
		if _, err := c.AddPeer(c.Peers[0]); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if err := c.WaitStable(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	r := validate(t, c, 0, key, 5, "u#6")
	if r.Status != msg.ValidateOK || r.ValidatedTS != 6 {
		t.Fatalf("post-join: %v ts=%d lastTS=%d", r.Status, r.ValidatedTS, r.LastTS)
	}
}

// A joiner whose range holds a timestamped key receives that entry once:
// its successor hands the range over on the join's notify, and the
// joiner counts one takeover.
func TestJoinTakesOverTimestampsOnce(t *testing.T) {
	c := newCluster(t, 4)
	joiner := c.NewPeer()
	self := joiner.Node.ID()
	pred := c.Peers[0].Node.ID()
	for _, p := range c.Peers[:4] {
		if ids.Between(p.Node.ID(), pred, self) {
			pred = p.Node.ID()
		}
	}
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("join-once-%d", i); ids.BetweenRightIncl(ids.HashTS(k), pred, self) {
			key = k
		}
	}
	for i := uint64(0); i < 3; i++ {
		if r := validate(t, c, 0, key, i, fmt.Sprintf("u#%d", i+1)); r.Status != msg.ValidateOK {
			t.Fatalf("grant %d: %v", i, r.Status)
		}
	}
	ctx, cancel := c.Clk.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.Join(ctx, c.Peers[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, err := c.WaitUntil(5*time.Second, "the joiner holds the key's timestamps", func() bool {
		last, ok := joiner.KTS.LastTSLocal(key)
		return ok && last == 3
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitStable(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, takeovers := joiner.KTS.Stats(); takeovers != 1 {
		t.Fatalf("joiner counted %d takeovers, want 1", takeovers)
	}
	if r := validate(t, c, 0, key, 3, "u#4"); r.Status != msg.ValidateOK || r.ValidatedTS != 4 {
		t.Fatalf("post-join: %v ts=%d lastTS=%d", r.Status, r.ValidatedTS, r.LastTS)
	}
}

func TestMasterStatsAndKeysHeld(t *testing.T) {
	c := newCluster(t, 3)
	key := "stats-doc"
	validate(t, c, 0, key, 0, "u#1")
	master := c.MasterOf(uint64(ids.HashTS(key)))
	grants, _, _ := master.KTS.Stats()
	if grants != 1 {
		t.Fatalf("master grants = %d", grants)
	}
	held := false
	for _, st := range master.KTS.KeyStates() {
		held = held || (st.Key == key && st.Master)
	}
	if !held {
		t.Fatalf("master's KeyStates = %+v, want %q held as master", master.KTS.KeyStates(), key)
	}
	if last, ok := master.KTS.LastTSLocal(key); !ok || last != 1 {
		t.Fatalf("LastTSLocal = %d,%v", last, ok)
	}
}

func TestIdempotentRepublishAfterAckLoss(t *testing.T) {
	// Simulates the crash window: the user's patch was published but the
	// ack was lost; the user retries with the same PatchID and stale TS.
	// The master answers Behind; the log holds the user's own patch.
	c := newCluster(t, 4)
	key := "ackloss-doc"
	r := validate(t, c, 0, key, 0, "u#1")
	if r.Status != msg.ValidateOK {
		t.Fatalf("first: %v", r.Status)
	}
	// Retry the same patch as if the ack never arrived.
	r = validate(t, c, 0, key, 0, "u#1")
	if r.Status != msg.ValidateBehind || r.LastTS != 1 {
		t.Fatalf("republish: %v lastTS=%d", r.Status, r.LastTS)
	}
	// The retrieved patch must be the user's own.
	ctx := context.Background()
	rec, err := c.Peers[0].Log.Fetch(ctx, key, 1)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if rec.PatchID != "u#1" {
		t.Fatalf("log holds %s, want u#1", rec.PatchID)
	}
}
