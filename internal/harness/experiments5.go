package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/metrics"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// E11 reproduces the paper's evaluation regime — thousands of peers —
// in seconds of real time by running the whole stack on a virtual clock:
// a seeded Chord ring under paper-like timer settings and WAN-like
// latency takes sustained message loss plus repeated churn batches
// (crash a percent of the ring, then join the same number of fresh peers
// through the real join protocol), and the experiment measures how long
// the ring takes to re-converge after each batch. Because the vclock
// scheduler wakes one goroutine per event, the entire run — event order,
// convergence times, message counts — replays identically under a fixed
// seed (TestE11Deterministic pins exactly that).

// e11Record is one measured churn phase. The fields are plain values on
// the virtual timeline, so two runs can be compared for identity.
type e11Record struct {
	Phase string        // "crash" or "join"
	Round int           // churn round, 1-based
	Batch int           // peers crashed or joined
	At    time.Duration // virtual time the phase started (since epoch)
	Conv  time.Duration // virtual time until the ring re-converged
}

// e11Result is everything one E11 run measured.
type e11Result struct {
	Peers   int // initial ring size (the live count stays at it)
	Records []e11Record
	Sent    int64 // simnet messages sent
	Dropped int64 // simnet messages lost
	// Evictions sums routing-state evictions across all peers;
	// FalseEvictions counts the subset that evicted a peer which was
	// still live — pure loss-induced finger churn, the metric the
	// lookup strike budget exists to hold down. (Evicting a genuinely
	// dead peer is repair, not churn.)
	Evictions      int64
	FalseEvictions int64
	Virtual        time.Duration
	Wall           time.Duration
}

// conv collects the convergence-time distribution.
func (r *e11Result) conv() *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, rec := range r.Records {
		h.Observe(rec.Conv)
	}
	return h
}

// runE11 executes one virtual-time churn+convergence run. It is split
// from RunE11 so the determinism test can execute two identical runs and
// compare results structurally.
func runE11(seed int64, peers, rounds int) (*e11Result, error) {
	const (
		latencyMedian = 25 * time.Millisecond
		latencySigma  = 0.5
		dropProb      = 0.01 // sustained one-way loss during the measured phase
		sampleEvery   = 100 * time.Millisecond
		succFracMin   = 0.95 // tolerate loss-induced successor flapping
		warmup        = 3 * time.Second
		settleBudget  = 60 * time.Second // virtual, per phase
	)
	clk := vclock.NewVirtual()
	net := transport.NewSimnet(
		transport.WithClock(clk),
		transport.WithLatency(transport.NewLogNormalLatency(latencyMedian, latencySigma, seed+1)),
		transport.WithDropProb(0, seed+2), // loss starts after warm-up
	)
	// Paper-like timer settings: with virtual time there is no need for
	// the aggressive FastConfig periods in-process experiments use.
	cfg := chord.Config{
		SuccListLen:     8,
		StabilizeEvery:  500 * time.Millisecond,
		FixFingersEvery: 500 * time.Millisecond,
		CheckPredEvery:  time.Second,
		CallTimeout:     400 * time.Millisecond,
		Clock:           clk,
	}
	res := &e11Result{Peers: peers}
	wallStart := time.Now()
	ctx := context.Background()

	// Membership is dynamic: crashed peers never return (their endpoints
	// stay dead), each churn round joins the same number of fresh peers.
	var (
		nodes   []*chord.Node
		down    []bool
		addrIdx = make(map[transport.Addr]int)
		byID    []int // membership (incl. dead peers) in ring-ID order
		posOf   []int // node index -> position in byID
	)
	// Classify evictions as they happen: the observer runs synchronously
	// on the evicting goroutine, and the virtual scheduler admits one
	// goroutine at a time, so reading the membership state here is safe
	// and deterministic.
	onEvict := func(dead msg.NodeRef) {
		if i, known := addrIdx[transport.Addr(dead.Addr)]; known && !down[i] {
			res.FalseEvictions++
		}
	}
	newNode := func() int {
		i := len(nodes)
		nd := chord.NewNode(net.NewEndpoint(fmt.Sprintf("sim-%05d", i)), cfg, nil, nil)
		nd.AddEvictObserver(onEvict)
		nodes = append(nodes, nd)
		down = append(down, false)
		addrIdx[nd.Addr()] = i
		return i
	}
	reorder := func() {
		byID = byID[:0]
		for i := range nodes {
			byID = append(byID, i)
		}
		sort.Slice(byID, func(a, b int) bool { return nodes[byID[a]].ID() < nodes[byID[b]].ID() })
		posOf = make([]int, len(nodes))
		for pos, i := range byID {
			posOf[i] = pos
		}
	}
	for i := 0; i < peers; i++ {
		newNode()
	}
	reorder()

	clk.Register()
	defer clk.Unregister()

	// Warm start: seed the ring directly instead of paying O(N log N)
	// join round trips of virtual time before the measured phase.
	chord.SeedRing(nodes)
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	nextLive := func(pos int) int {
		n := len(byID)
		for k := 1; k <= n; k++ {
			if i := byID[(pos+k)%n]; !down[i] {
				return i
			}
		}
		return byID[pos]
	}
	prevLive := func(pos int) int {
		n := len(byID)
		for k := 1; k <= n; k++ {
			if i := byID[((pos-k)%n+n)%n]; !down[i] {
				return i
			}
		}
		return byID[pos]
	}

	// ringState inspects local routing state only (no RPCs, no virtual
	// time): the fraction of live peers whose successor pointer is
	// exactly the next live peer, and whether any live peer still points
	// at a dead one.
	ringState := func() (frac float64, deadSucc bool) {
		live, ok := 0, 0
		for _, i := range byID {
			if down[i] {
				continue
			}
			live++
			succ := nodes[i].Successor()
			if j, known := addrIdx[transport.Addr(succ.Addr)]; known && down[j] {
				deadSucc = true
			}
			if succ.ID == nodes[nextLive(posOf[i])].ID() {
				ok++
			}
		}
		if live == 0 {
			return 1, false
		}
		return float64(ok) / float64(live), deadSucc
	}

	// healedAround reports whether the ring positions a churn batch
	// touched are exactly repaired: the live predecessor of every victim
	// or joiner points at its live ring-order replacement (the joiner
	// itself for a join), and a live joiner is linked forward too. The
	// global fraction alone cannot see this — a handful of stale
	// pointers at a thousand peers drowns in the loss-induced flapping
	// tolerance.
	healedAround := func(members []int) bool {
		for _, v := range members {
			p := prevLive(posOf[v])
			if nodes[p].Successor().ID != nodes[nextLive(posOf[p])].ID() {
				return false
			}
			if !down[v] && nodes[v].Successor().ID != nodes[nextLive(posOf[v])].ID() {
				return false
			}
		}
		return true
	}

	// waitConverged samples the ring every sampleEvery of virtual time
	// until all churn damage around the affected members is repaired,
	// nobody's successor is a dead peer, and the successor-correct
	// fraction is back above the sustained-loss noise floor.
	waitConverged := func(phase string, members []int) (time.Duration, error) {
		t0 := clk.Now()
		for {
			frac, deadSucc := ringState()
			if !deadSucc && frac >= succFracMin && healedAround(members) {
				return clk.Since(t0), nil
			}
			if clk.Since(t0) > settleBudget {
				detail := ""
				for _, v := range members {
					p := prevLive(posOf[v])
					detail += fmt.Sprintf("\n  member %s(down=%v succ=%s want=%s pred=%s) pred %s(succ=%s want=%s)",
						nodes[v].Addr(), down[v], nodes[v].Successor().Addr, nodes[nextLive(posOf[v])].Addr(), nodes[v].Predecessor().Addr,
						nodes[p].Addr(), nodes[p].Successor().Addr, nodes[nextLive(posOf[p])].Addr())
				}
				return 0, fmt.Errorf("E11: ring did not re-converge within %v of virtual time after %s (succ-frac %.3f, dead-successor=%v, healed-around-batch=%v)%s",
					settleBudget, phase, frac, deadSucc, healedAround(members), detail)
			}
			_ = clk.Sleep(ctx, sampleEvery)
		}
	}

	// Let the seeded ring tick for a few periods with no loss, proving
	// the warm start is the converged state.
	_ = clk.Sleep(ctx, warmup)
	if frac, deadSucc := ringState(); frac < succFracMin || deadSucc {
		return nil, fmt.Errorf("E11: seeded ring degraded during warm-up (succ-frac %.3f)", frac)
	}

	net.SetDropProb(dropProb)
	rng := rand.New(rand.NewSource(seed))
	batch := peers / 50
	if batch < 1 {
		batch = 1
	}

	// joinRetry joins node i, rotating across live bootstrap peers; under
	// sustained loss a join RPC can be dropped or routed into a
	// not-yet-evicted dead finger, so back off (in virtual time, letting
	// the ring repair its routing) and retry before giving up.
	joinRetry := func(i int) error {
		var lastErr error
		for attempt := 0; attempt < 8; attempt++ {
			if attempt > 0 {
				_ = clk.Sleep(ctx, time.Second)
			}
			boot, nth := -1, attempt
			for _, j := range byID {
				if !down[j] && j != i && nodes[j].Running() {
					boot = j
					if nth == 0 {
						break
					}
					nth--
				}
			}
			if boot < 0 {
				return fmt.Errorf("E11: no live bootstrap peer")
			}
			if lastErr = nodes[i].Join(ctx, nodes[boot].Addr()); lastErr == nil {
				return nil
			}
		}
		return fmt.Errorf("E11: join %s: %w", nodes[i].Addr(), lastErr)
	}

	for round := 1; round <= rounds; round++ {
		// Crash a batch of random live peers (fail-stop, no protocol;
		// they never return).
		var alive []int
		for i := range nodes {
			if !down[i] {
				alive = append(alive, i)
			}
		}
		victims := make([]int, 0, batch)
		for _, p := range rng.Perm(len(alive))[:batch] {
			victims = append(victims, alive[p])
		}
		at := clk.Since(time.Unix(0, 0).UTC())
		for _, v := range victims {
			net.Crash(nodes[v].Addr())
			nodes[v].Stop()
			down[v] = true
		}
		conv, err := waitConverged("crash", victims)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.Records = append(res.Records, e11Record{Phase: "crash", Round: round, Batch: len(victims), At: at, Conv: conv})

		// Join the same number of fresh peers through the normal join
		// protocol, restoring the live count.
		at = clk.Since(time.Unix(0, 0).UTC())
		joiners := make([]int, 0, batch)
		for k := 0; k < batch; k++ {
			joiners = append(joiners, newNode())
		}
		reorder()
		for _, i := range joiners {
			if err := joinRetry(i); err != nil {
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
		}
		conv, err = waitConverged("join", joiners)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.Records = append(res.Records, e11Record{Phase: "join", Round: round, Batch: len(joiners), At: at, Conv: conv})
	}

	for _, nd := range nodes {
		nd.Stop()
	}
	for _, nd := range nodes {
		res.Evictions += nd.Evictions()
	}
	res.Sent, res.Dropped = net.Stats()
	res.Virtual = clk.Since(time.Unix(0, 0).UTC())
	res.Wall = time.Since(wallStart)
	return res, nil
}

// RunE11 runs the virtual-time scale experiment: a 1000-peer ring (192
// quick, 10000 long) under sustained 1% message loss and repeated 2%
// crash+join churn batches, reporting the ring convergence-time
// distribution — the ROADMAP's "characterize ring convergence at
// TestGround-like scales under sustained loss" item, at a scale real
// sleeping could never reach in-process.
func RunE11(cfg Config) error {
	peers, rounds := 1000, 6
	if cfg.Quick {
		peers, rounds = 192, 4
	}
	if cfg.Long {
		peers, rounds = 10000, 6
	}
	res, err := runE11(cfg.Seed, peers, rounds)
	if err != nil {
		return err
	}

	tbl := metrics.NewTable("round", "phase", "batch", "at(virtual)", "conv-time")
	for _, rec := range res.Records {
		tbl.AddRow(rec.Round, rec.Phase, rec.Batch, rec.At, rec.Conv)
	}
	fmt.Fprint(cfg.Out, tbl.String())
	h := res.conv()
	fmt.Fprintf(cfg.Out, "convergence: %s\n", h.Summary())
	fmt.Fprintf(cfg.Out, "peers=%d messages=%d dropped=%d (%.2f%%) evictions=%d (false: %d) virtual=%s wall=%s speedup=%.0fx\n",
		res.Peers, res.Sent, res.Dropped, 100*float64(res.Dropped)/float64(res.Sent),
		res.Evictions, res.FalseEvictions,
		res.Virtual.Round(time.Millisecond), res.Wall.Round(time.Millisecond),
		float64(res.Virtual)/float64(res.Wall))

	// Shape checks: every churn phase must have been measured, every
	// phase must have re-converged in bounded virtual time, and the
	// sustained loss must actually have been exercised.
	if want := 2 * rounds; len(res.Records) != want {
		return fmt.Errorf("E11: measured %d phases, want %d", len(res.Records), want)
	}
	for _, rec := range res.Records {
		// Conv == 0 is legitimate: a join batch spends seconds of virtual
		// time on the join RPCs themselves, and stabilization can finish
		// integrating the early joiners before the measurement starts.
		if rec.Conv < 0 || rec.Conv > 60*time.Second {
			return fmt.Errorf("E11: round %d %s convergence %v out of bounds", rec.Round, rec.Phase, rec.Conv)
		}
	}
	if res.Dropped == 0 {
		return fmt.Errorf("E11: sustained loss dropped no messages (sent %d)", res.Sent)
	}
	// Finger churn: evicting dead peers is repair the churn batches make
	// necessary, but evicting a live peer is pure loss damage — a wrong
	// pointer the next stabilization rounds must put back. With the
	// loss-scaled lookup strike budget (route around immediately via the
	// avoid set, evict only on repeated timeout strikes) false evictions
	// stay below one per five peers; single-failure eviction measured
	// 145 at 192 peers and 8431 at 1000, vs 5 and 125 with the budget.
	if res.FalseEvictions >= int64(res.Peers)/5+10 {
		return fmt.Errorf("E11: %d live peers evicted (of %d evictions total) across %d peers — lookup loss is churning fingers again",
			res.FalseEvictions, res.Evictions, res.Peers)
	}
	fmt.Fprintln(cfg.Out, "shape check: a seeded paper-scale ring under sustained loss re-converges after every crash and join batch, in seconds of virtual time and milliseconds of wall time per peer")
	return nil
}
