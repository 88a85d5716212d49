package gateway_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// newCluster builds a seeded virtual-time ring and registers teardown.
// The calling test goroutine becomes the simulation driver.
func newCluster(t *testing.T, n int, opts core.Options, netOpts ...transport.SimnetOption) (*ringtest.Cluster, *vclock.Virtual) {
	t.Helper()
	c := ringtest.NewVirtualCluster(n, opts, netOpts...)
	t.Cleanup(c.Close)
	return c, c.Clk
}

// waitUntil advances virtual time until cond holds, failing the test
// after budget. It returns how much virtual time elapsed.
func waitUntil(t *testing.T, c *ringtest.Cluster, budget time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	waited, err := c.WaitUntil(budget, what, cond)
	if err != nil {
		t.Fatal(err)
	}
	return waited
}

func gwConfig() gateway.Config {
	return gateway.Config{BatchTick: 100 * time.Millisecond, ProbeIdle: 500 * time.Millisecond}
}

// TestBatchingAndFollowerFreshness is the staleness-bound test: an
// editor on gateway A commits bursts of lines (batched, not one commit
// per line) while a follower on gateway B must track the committed
// state within a bounded delay of the last commit.
func TestBatchingAndFollowerFreshness(t *testing.T) {
	opts := core.Options{CheckpointInterval: 4}
	c, clk := newCluster(t, 8, opts)
	ctx := context.Background()

	gwA := gateway.New(c.Peers[0], gwConfig())
	t.Cleanup(gwA.Close)
	gwB := gateway.New(c.Peers[1], gwConfig())
	t.Cleanup(gwB.Close)

	ed := gwA.Session("alice").Editor("doc", "alice")
	viewer := gwB.Session("bob").Follower("doc")

	const bursts, perBurst = 10, 3
	for i := 0; i < bursts; i++ {
		for j := 0; j < perBurst; j++ {
			ed.Enqueue(fmt.Sprintf("line-%02d-%d", i, j))
		}
		_ = clk.Sleep(ctx, 150*time.Millisecond)
	}
	waitUntil(t, c, 60*time.Second, "all enqueued lines to commit", func() bool {
		return gwA.Counters().Counter("batched-ops").Value() == bursts*perBurst && !ed.Replica().Dirty()
	})
	if err := ed.Err(); err != nil {
		t.Fatalf("editor unhealthy after workload: %v", err)
	}

	// Multiplexing must batch: 30 lines in bursts of 3 on a 100ms tick
	// cannot take 30 validations.
	commits := gwA.Counters().Counter("commits").Value()
	if commits <= 0 || commits >= bursts*perBurst {
		t.Fatalf("expected batched commits in (0, %d), got %d", bursts*perBurst, commits)
	}

	// Staleness bound: the follower must reach the final committed state
	// within the feed's probe ceiling plus delivery slack.
	finalTS := ed.Replica().CommittedTS()
	lag := waitUntil(t, c, 3*time.Second, "follower to reach final ts", func() bool {
		return viewer.TS() == finalTS
	})
	t.Logf("follower converged to ts %d with %v staleness, %d commits for %d lines", finalTS, lag, commits, bursts*perBurst)

	text, ts := viewer.Read()
	if ts != finalTS || text != ed.Replica().CommittedText() {
		t.Fatalf("follower state diverged: ts %d vs %d, text %q vs %q", ts, finalTS, text, ed.Replica().CommittedText())
	}
	if reads := gwB.Counters().Counter("follower-reads").Value(); reads == 0 {
		t.Fatal("follower reads not counted")
	}
}

// TestFollowerReadsBypassKTS is the isolation acceptance test: a cold
// gateway bootstraps a follower from the checkpoint pointer and serves
// reads without a single KTS call — grants and last_ts counts across
// the whole ring stay flat.
func TestFollowerReadsBypassKTS(t *testing.T) {
	opts := core.Options{CheckpointInterval: 4}
	c, clk := newCluster(t, 8, opts)
	ctx := context.Background()

	gwA := gateway.New(c.Peers[0], gwConfig())
	t.Cleanup(gwA.Close)
	ed := gwA.Session("w").Editor("doc", "w")
	const edits = 10
	for i := 0; i < edits; i++ {
		ed.Enqueue(fmt.Sprintf("line-%02d", i))
		_ = clk.Sleep(ctx, 150*time.Millisecond)
	}
	waitUntil(t, c, 60*time.Second, "editor workload to drain", func() bool {
		return gwA.Counters().Counter("batched-ops").Value() == edits && !ed.Replica().Dirty()
	})
	finalTS := ed.Replica().CommittedTS()

	ktsCalls := func() (grants, lastTS int64) {
		for _, p := range c.Peers {
			g, _, _ := p.KTS.Stats()
			grants += g
			lastTS += p.KTS.LastTSCalls()
		}
		return
	}
	g0, l0 := ktsCalls()

	// Cold gateway: its feed must bootstrap from the cached checkpoint
	// pointer + log tail, never asking the master for last_ts.
	gwB := gateway.New(c.Peers[3], gwConfig())
	t.Cleanup(gwB.Close)
	viewer := gwB.Session("r").Follower("doc")
	waitUntil(t, c, 10*time.Second, "cold follower to converge", func() bool {
		return viewer.TS() == finalTS
	})
	for i := 0; i < 100; i++ {
		if text, _ := viewer.Read(); text != ed.Replica().CommittedText() {
			t.Fatalf("follower text diverged on read %d", i)
		}
	}
	_ = clk.Sleep(ctx, time.Second) // let any stray async work surface

	if n := gwB.Counters().Counter("follower-bootstraps").Value(); n == 0 {
		t.Fatal("cold follower never bootstrapped from a checkpoint")
	}
	if n := gwB.Counters().Counter("follower-reads").Value(); n < 100 {
		t.Fatalf("follower reads undercounted: %d", n)
	}
	g1, l1 := ktsCalls()
	if g1 != g0 || l1 != l0 {
		t.Fatalf("follower path touched the KTS: grants %d -> %d, last_ts calls %d -> %d", g0, g1, l0, l1)
	}
}

// TestAdmissionShedsCommitEveryLineOnce pins hot-key admission end to
// end: a single-slot admission limit under four writers of one document
// — one per gateway, four gateways on four peers, since the editors of
// one gateway share a writer — forces the master to shed validators, and
// every enqueued line must still reach the log exactly once — a shed
// request is retried as-is by Commit's busy back-off, never dropped and
// never doubled.
func TestAdmissionShedsCommitEveryLineOnce(t *testing.T) {
	opts := core.Options{AdmissionLimit: 1}
	// Real network latency so validations on the hot key overlap — with
	// instant RPCs they would serialize and the single slot never fills.
	c, clk := newCluster(t, 8, opts,
		transport.WithLatency(transport.NewLogNormalLatency(25*time.Millisecond, 0.5, 7)))
	ctx := context.Background()

	const editors, rounds = 4, 20
	eds := make([]*gateway.Editor, editors)
	gws := make([]*gateway.Gateway, editors)
	for i := range eds {
		gws[i] = gateway.New(c.Peers[2*i], gateway.Config{BatchTick: 10 * time.Millisecond, ProbeIdle: 500 * time.Millisecond})
		t.Cleanup(gws[i].Close)
		eds[i] = gws[i].Session(fmt.Sprintf("s%d", i)).Editor("hotdoc", fmt.Sprintf("site-%d", i))
	}
	want := make(map[string]int)
	for r := 0; r < rounds; r++ {
		for i, ed := range eds {
			line := fmt.Sprintf("l-%d-%d", i, r)
			ed.Enqueue(line)
			want[line] = 1
		}
		_ = clk.Sleep(ctx, 10*time.Millisecond)
	}
	waitUntil(t, c, 120*time.Second, "convoy workload to drain", func() bool {
		var acked int64
		for _, gw := range gws {
			acked += gw.Counters().Counter("batched-ops").Value()
		}
		return acked == int64(len(want))
	})

	var busy int64
	for _, p := range c.Peers {
		_, b := p.KTS.AdmissionStats()
		busy += b
	}
	if busy == 0 {
		t.Fatal("admission never shed a validator; the back-off path was not exercised")
	}
	t.Logf("%d busy sheds", busy)

	reader := core.NewReplica(c.Peers[1], "hotdoc", "reader")
	if err := reader.Pull(ctx); err != nil {
		t.Fatalf("pull: %v", err)
	}
	got := make(map[string]int)
	for _, line := range strings.Split(reader.CommittedText(), "\n") {
		if line != "" {
			got[line]++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log holds %d distinct lines, want each of %d exactly once: %v", len(got), len(want), got)
	}
}

// tap observes the requests the peers of a tapped cluster send over the
// network. A peer's calls to itself short-cut the transport and are not
// seen.
type tap struct {
	mu          sync.Mutex
	validating  map[string]int // ValidateReq in flight, per document
	maxValidate map[string]int
	parkedGets  map[transport.Addr]int // DHTGetReq with a Wait, per sender
}

func (tp *tap) parkedFrom(a transport.Addr) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.parkedGets[a]
}

type tapEndpoint struct {
	transport.Endpoint
	tp *tap
}

func (e tapEndpoint) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	tp := e.tp
	switch r := req.(type) {
	case *msg.ValidateReq:
		tp.mu.Lock()
		tp.validating[r.Key]++
		tp.maxValidate[r.Key] = max(tp.maxValidate[r.Key], tp.validating[r.Key])
		tp.mu.Unlock()
		defer func() {
			tp.mu.Lock()
			tp.validating[r.Key]--
			tp.mu.Unlock()
		}()
	case *msg.DHTGetReq:
		if r.Wait > 0 {
			tp.mu.Lock()
			tp.parkedGets[e.Addr()]++
			tp.mu.Unlock()
		}
	}
	return e.Endpoint.Call(ctx, to, req)
}

// newTappedCluster is newCluster with every peer's endpoint tapped.
func newTappedCluster(t *testing.T, n int, netOpts ...transport.SimnetOption) (*ringtest.Cluster, *vclock.Virtual, *tap) {
	t.Helper()
	tp := &tap{validating: map[string]int{}, maxValidate: map[string]int{}, parkedGets: map[transport.Addr]int{}}
	c, clk := newWrappedCluster(t, n, func(_ int, ep transport.Endpoint) transport.Endpoint {
		return tapEndpoint{Endpoint: ep, tp: tp}
	}, netOpts...)
	return c, clk, tp
}

// newWrappedCluster is newCluster with peer i's endpoint replaced by
// wrap(i, endpoint).
func newWrappedCluster(t *testing.T, n int, wrap func(i int, ep transport.Endpoint) transport.Endpoint, netOpts ...transport.SimnetOption) (*ringtest.Cluster, *vclock.Virtual) {
	t.Helper()
	c, clk := newCluster(t, 0, core.Options{}, netOpts...)
	for i := 0; i < n; i++ {
		c.NewPeerOn(wrap(i, c.Net.NewEndpoint(fmt.Sprintf("sim-%05d", i))))
	}
	c.Seed()
	return c, clk
}

// ackLoser is an endpoint that, once armed, delivers the next granted
// validation and then loses its ack — the master has logged the patch,
// the caller sees a timeout — and from then on times out every
// validation it is asked to send until down is cleared. onLose runs at
// the loss, while nobody knows yet.
type ackLoser struct {
	transport.Endpoint
	armed, down atomic.Bool
	onLose      func()
}

func (e *ackLoser) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	if _, ok := req.(*msg.ValidateReq); ok && e.down.Load() {
		return nil, transport.ErrTimeout
	}
	resp, err := e.Endpoint.Call(ctx, to, req)
	if vr, ok := resp.(*msg.ValidateResp); ok && vr.Status == msg.ValidateOK && e.armed.CompareAndSwap(true, false) {
		e.down.Store(true)
		e.onLose()
		return nil, transport.ErrTimeout
	}
	return resp, err
}

// TestRetriedBatchKeepsItsPatchID: the master logs the writer's batch but
// its ack is lost, and the master stays unreachable until the commit
// gives up. Lines enqueued meanwhile must not join the failed batch: the
// writer retries it unchanged, under its patch ID, so it finds its own
// record in the log instead of committing the batch a second time, and
// the new lines go out in the batch after it. Every line is in the log
// once and OnCommit reports each timestamp once.
func TestRetriedBatchKeepsItsPatchID(t *testing.T) {
	twice(t, func(t *testing.T) string {
		var host *ackLoser
		c, _ := newWrappedCluster(t, 8, func(i int, ep transport.Endpoint) transport.Endpoint {
			if i == 0 {
				host = &ackLoser{Endpoint: ep}
				return host
			}
			return ep
		}, netDelay)
		ctx := context.Background()
		// A document mastered off the host, so its validations cross the
		// lossy endpoint.
		doc := ""
		for i := 0; doc == ""; i++ {
			if cand := fmt.Sprintf("doc-%d", i); c.MasterOf(uint64(ids.HashTS(cand))) != c.Peers[0] {
				doc = cand
			}
		}
		var (
			mu   sync.Mutex
			acks []uint64
		)
		cfg := gwConfig()
		cfg.OnCommit = func(_ string, ts uint64, _ time.Duration) {
			mu.Lock()
			acks = append(acks, ts)
			mu.Unlock()
		}
		gw := gateway.New(c.Peers[0], cfg)
		t.Cleanup(gw.Close)
		ed := gw.Session("s").Editor(doc, "w")
		host.onLose = func() {
			ed.Enqueue("late-1")
			ed.Enqueue("late-2")
		}

		host.armed.Store(true)
		ed.Enqueue("early-1")
		ed.Enqueue("early-2")
		waitUntil(t, c, 30*time.Second, "the commit to give up", func() bool { return ed.Err() != nil })
		host.down.Store(false)
		waitUntil(t, c, 60*time.Second, "every line to commit", func() bool {
			return gwCount(gw, "batched-ops") == 4
		})

		reader := core.NewReplica(c.Peers[5], doc, "reader")
		if err := reader.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int)
		for _, line := range strings.Split(reader.CommittedText(), "\n") {
			got[line]++
		}
		want := map[string]int{"early-1": 1, "early-2": 1, "late-1": 1, "late-2": 1}
		if !reflect.DeepEqual(got, want) || reader.CommittedTS() != 2 {
			t.Fatalf("log holds %v at ts %d, want each of %d lines once at ts 2", got, reader.CommittedTS(), len(want))
		}
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(acks, []uint64{1, 2}) {
			t.Fatalf("OnCommit reported timestamps %v, want 1 and 2 once each", acks)
		}
		return fmt.Sprint(acks, " ", reader.CommittedText())
	})
}

// TestOneWriterPerDocument: eight editors of one document on one gateway
// are one writer. It never has two validations of the document in flight,
// reports each granted timestamp once, and every line reaches the log
// exactly once.
func TestOneWriterPerDocument(t *testing.T) {
	twice(t, func(t *testing.T) string {
		c, clk, tp := newTappedCluster(t, 8, netDelay)
		ctx := context.Background()
		// A host that is not the document's master: its validations cross
		// the tapped transport.
		host := c.Peers[0]
		if host == c.MasterOf(uint64(ids.HashTS("doc"))) {
			host = c.Peers[1]
		}
		var (
			mu   sync.Mutex
			acks []uint64
		)
		cfg := gwConfig()
		cfg.OnCommit = func(_ string, ts uint64, _ time.Duration) {
			mu.Lock()
			acks = append(acks, ts)
			mu.Unlock()
		}
		gw := gateway.New(host, cfg)
		t.Cleanup(gw.Close)

		const editors, rounds = 8, 5
		eds := make([]*gateway.Editor, editors)
		for i := range eds {
			eds[i] = gw.Session(fmt.Sprintf("s%d", i)).Editor("doc", fmt.Sprintf("site-%d", i))
			if eds[i] != eds[0] {
				t.Fatalf("editor %d is not the document's writer", i)
			}
		}
		if n := gwCount(gw, "editors"); n != 1 {
			t.Fatalf("%d writers for one document", n)
		}
		want := make(map[string]int)
		for r := 0; r < rounds; r++ {
			for i, ed := range eds {
				line := fmt.Sprintf("e%d-%d", i, r)
				ed.Enqueue(line)
				want[line] = 1
				_ = clk.Sleep(ctx, 20*time.Millisecond)
			}
		}
		waitUntil(t, c, 60*time.Second, "every line to commit", func() bool {
			return gwCount(gw, "batched-ops") == editors*rounds
		})

		tp.mu.Lock()
		inflight := tp.maxValidate["doc"]
		tp.mu.Unlock()
		if inflight != 1 {
			t.Fatalf("at most %d validations of the document in flight, want 1", inflight)
		}
		mu.Lock()
		defer mu.Unlock()
		for i, ts := range acks {
			if ts != uint64(i+1) {
				t.Fatalf("OnCommit reported timestamps %v, want each of 1..%d once", acks, len(acks))
			}
		}
		if n := eds[0].Commits(); int64(len(acks)) != n || n >= editors*rounds {
			t.Fatalf("%d OnCommit calls for %d commits of %d lines", len(acks), n, editors*rounds)
		}
		reader := core.NewReplica(c.Peers[5], "doc", "reader")
		if err := reader.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int)
		for _, line := range strings.Split(reader.CommittedText(), "\n") {
			got[line]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("log holds %v, want each of %d lines once", got, len(want))
		}
		return fmt.Sprint(acks)
	})
}

// TestFeedParksAtTheLogPeer: on an idle ring a follower on gateway B
// publishes each timestamp no later than the committing editor on
// gateway A hears its ack — the feed's parked read is answered by the
// publish at the record's first Log-Peer — and an idle feed issues at
// most one parked read per ProbeIdle.
func TestFeedParksAtTheLogPeer(t *testing.T) {
	twice(t, func(t *testing.T) string {
		c, clk, tp := newTappedCluster(t, 8, netDelay)
		ctx := context.Background()
		const commits = 4
		// B's host must not own the slot its idle feed parks on, or the
		// parked read would short-cut the tapped transport.
		hostA, hostB := c.Peers[0], c.Peers[1]
		if hostB == c.MasterOf(uint64(ids.LogSlot("doc", commits+1).Pos(0))) {
			hostB = c.Peers[2]
		}
		start := clk.Now()
		var (
			mu       sync.Mutex
			acked    []time.Duration // by ts-1
			delivers []string
			firstAt  = map[uint64]time.Duration{} // ts -> first snapshot at or past it
		)
		cfgA := gwConfig()
		cfgA.OnCommit = func(_ string, ts uint64, _ time.Duration) {
			mu.Lock()
			acked = append(acked, clk.Since(start))
			mu.Unlock()
		}
		cfgB := gwConfig()
		cfgB.OnDeliver = func(_ string, ts uint64) {
			mu.Lock()
			at := clk.Since(start)
			delivers = append(delivers, fmt.Sprintf("%d@%v", ts, at))
			for t := uint64(1); t <= ts; t++ {
				if _, ok := firstAt[t]; !ok {
					firstAt[t] = at
				}
			}
			mu.Unlock()
		}
		gwA := gateway.New(hostA, cfgA)
		t.Cleanup(gwA.Close)
		gwB := gateway.New(hostB, cfgB)
		t.Cleanup(gwB.Close)
		ed := gwA.Session("w").Editor("doc", "w")
		viewer := gwB.Session("r").Follower("doc")
		_ = clk.Sleep(ctx, time.Second) // B's feed reaches the end of the empty log

		for i := 0; i < commits; i++ {
			ed.Enqueue(fmt.Sprintf("line-%d", i))
			waitUntil(t, c, 30*time.Second, "the commit", func() bool { return ed.Commits() == int64(i+1) })
			_ = clk.Sleep(ctx, 700*time.Millisecond)
		}
		waitUntil(t, c, 10*time.Second, "the follower to reach the last commit", func() bool {
			return viewer.TS() == commits
		})
		mu.Lock()
		for i, at := range acked {
			if d, ok := firstAt[uint64(i+1)]; !ok || d > at {
				t.Errorf("ts %d acked at %v, follower published %v", i+1, at, delivers)
			}
		}
		mu.Unlock()

		before := tp.parkedFrom(hostB.Addr())
		const idle = 10 * time.Second
		_ = clk.Sleep(ctx, idle)
		parks := tp.parkedFrom(hostB.Addr()) - before
		if limit := int(idle/cfgB.ProbeIdle) + 1; parks < 1 || parks > limit {
			t.Fatalf("an idle feed issued %d parked reads in %v; want 1..%d", parks, idle, limit)
		}
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("acks %v\ndelivers %v\nidle parks %d", acked, delivers, parks)
	})
}

// TestCrashedCachedMasterIsRoutedAround crashes the cached Master-key
// peer: the editor's next commit tries the stale route, drops it when
// the call fails, walks to the takeover master, and the follower
// converges on the post-crash commits.
func TestCrashedCachedMasterIsRoutedAround(t *testing.T) {
	c, _ := newCluster(t, 8, core.Options{})

	// Host the gateway on the master's ring predecessor: its
	// stabilization probes the master directly, so the ring repairs
	// around the crash while the stale route is still cached.
	master := c.MasterOf(uint64(ids.HashTS("doc")))
	var host *core.Peer
	for _, p := range c.Peers {
		if p != master && p.Node.Successor().ID == master.Node.ID() {
			host = p
		}
	}
	if host == nil {
		t.Fatal("no predecessor peer found for the doc master")
	}

	gw := gateway.New(host, gwConfig())
	t.Cleanup(gw.Close)
	sess := gw.Session("s")
	ed := sess.Editor("doc", "w")
	viewer := sess.Follower("doc")

	ed.Enqueue("before-crash")
	waitUntil(t, c, 30*time.Second, "first commit", func() bool {
		return ed.Replica().CommittedTS() >= 1
	})
	if gw.Counters().Counter("route-misses").Value() == 0 {
		t.Fatal("first commit never consulted the route cache")
	}

	c.Crash(master)
	hits := gw.Counters().Counter("route-hits").Value()
	ed.Enqueue("after-crash")
	waitUntil(t, c, 60*time.Second, "commit through the takeover master", func() bool {
		return ed.Replica().CommittedTS() >= 2
	})
	if gw.Counters().Counter("route-hits").Value() == hits {
		t.Fatal("the post-crash commit never tried the cached route")
	}
	waitUntil(t, c, 30*time.Second, "follower to converge past the crash", func() bool {
		return viewer.TS() == ed.Replica().CommittedTS()
	})
	text, _ := viewer.Read()
	if text != ed.Replica().CommittedText() {
		t.Fatalf("follower diverged after master crash: %q vs %q", text, ed.Replica().CommittedText())
	}
}
