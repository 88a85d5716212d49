package simtest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/ids"
	"p2pltr/internal/maintain"
	"p2pltr/internal/metrics"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
	"p2pltr/internal/workload"
)

// Run compiles the plan into a scenario over the vclock/simnet/core/
// gateway stack and executes it under the given seed. It never aborts
// on an invariant violation — every verdict lands in Result.Checks, so
// a failing run carries exactly the evidence the campaign engine and
// the shrinker need. Structural problems (an invalid plan, an
// impossible join) surface as a failed "run" check for the same reason.
func Run(plan Plan, seed int64) *Result {
	res := &Result{Plan: plan, Seed: seed, Counters: map[string]int64{}}
	wallStart := vclock.System.Now()
	defer func() { res.Wall = vclock.System.Since(wallStart) }()
	if err := plan.Validate(); err != nil {
		res.check("run", false, "%v", err)
		res.finalize(newDigest())
		return res
	}
	r := newRunner(plan, seed, res)
	r.run()
	res.finalize(r.dig)
	return res
}

// action is one compiled schedule entry, fired by the driver loop at
// its virtual due time.
type action struct {
	at   time.Duration
	kind string // "churn", "partition", "heal", "kill-master"
	f    FaultEvent
	b    ChurnBatch
}

// pendingJoin is a churn join in progress. Joins are a driver-advanced
// state machine (one bounded attempt per tick) rather than a blocking
// retry loop: a join struggling through a partition window must not
// stall the schedule, or the heal event fires late and every fault
// after it hits a different system than the plan described.
type pendingJoin struct {
	idx      int
	attempts int
	nextAt   time.Duration
}

// runner holds one run's live state.
type runner struct {
	plan Plan
	seed int64
	res  *Result

	c      *ringtest.Cluster
	clk    *vclock.Virtual // c.Clk
	ctx    context.Context
	epoch  time.Time
	tracer *trace.Tracer

	mu       sync.Mutex // guards events/digest/session bookkeeping
	dig      digest
	down     []bool // parallel to c.Peers
	hosts    []int  // reserved session-host peer indexes (direct mode)
	hostBusy []bool
	gwHosts  map[int]bool
	killReq  []int
	doneN    int

	sessions   int
	doomed     map[int]bool
	schedule   []action
	pending    []pendingJoin
	partOn     bool
	partGroups [][]transport.Addr

	// Gateway mode.
	gws      []*gateway.Gateway
	viewers  []*gateway.Follower
	monitors map[string][]*gateway.Follower
	commitAt map[string]map[uint64]time.Duration
	staleMax map[string]time.Duration
	lines    int64
	vc       int
}

// newRunner compiles the plan's schedule and builds its ring, making the
// calling goroutine the ring's simulation driver; run closes the ring.
func newRunner(plan Plan, seed int64, res *Result) *runner {
	clk := vclock.NewVirtual()
	r := &runner{
		plan: plan, seed: seed, res: res,
		clk:      clk,
		ctx:      context.Background(),
		epoch:    time.Unix(0, 0).UTC(),
		dig:      newDigest(),
		gwHosts:  map[int]bool{},
		doomed:   plan.DoomedDocs(),
		sessions: plan.Docs * plan.EditorsPerDoc,
		commitAt: map[string]map[uint64]time.Duration{},
		staleMax: map[string]time.Duration{},
		monitors: map[string][]*gateway.Follower{},
	}
	// One shared tracer across all peers: its span counter is advanced
	// only at deterministically-scheduled points, so span and trace IDs
	// reproduce bitwise under the same seed, and cross-peer segments of
	// one commit land in one ring.
	r.tracer = trace.New(clk, 4096)
	r.tracer.SetOrigin("simtest")
	// The sink runs on each span's ending goroutine, which the scheduler
	// serializes: the fold order is the completion order.
	res.TraceDigest = trace.HashSeed()
	r.tracer.SetSink(func(d trace.SpanData) {
		r.mu.Lock()
		res.TraceDigest = d.Hash(res.TraceDigest)
		res.TraceSpans++
		r.mu.Unlock()
	})
	// Paper-like timers, as in chord's scale tests: virtual time makes
	// aggressive periods pointless, and at 512+ peers their event rate
	// would dominate the wall-time budget.
	opts := core.Options{
		Chord: chord.Config{
			SuccListLen:     8,
			StabilizeEvery:  500 * time.Millisecond,
			FixFingersEvery: 500 * time.Millisecond,
			CheckPredEvery:  time.Second,
			CallTimeout:     400 * time.Millisecond,
		},
		CheckpointInterval: checkpointInterval,
		ClientBackoff:      time.Second,
		Clock:              clk,
		AdmissionLimit:     plan.AdmissionLimit,
		Tracer:             r.tracer,
		FlightRecorder:     256,
	}
	if !plan.DisableMaintain {
		opts.Maintain = &maintain.Config{
			TruncateEvery: truncateEvery,
			KeepIntervals: keepIntervals,
		}
	}
	// Compile the timed schedule: churn batches plus partition windows
	// and master kills, in virtual-time order (original order breaking
	// ties, so plan files read top to bottom).
	for _, b := range plan.Churn {
		r.schedule = append(r.schedule, action{at: ms(b.AtMS), kind: "churn", b: b})
	}
	for _, f := range plan.Faults {
		switch f.Kind {
		case FaultPartition:
			r.schedule = append(r.schedule, action{at: ms(f.AtMS), kind: "partition", f: f})
			r.schedule = append(r.schedule, action{at: ms(f.AtMS + f.DurationMS), kind: "heal", f: f})
		case FaultKillMaster:
			r.schedule = append(r.schedule, action{at: ms(f.AtMS), kind: "kill-master", f: f})
		}
	}
	sort.SliceStable(r.schedule, func(i, j int) bool { return r.schedule[i].at < r.schedule[j].at })
	// The ring: this goroutine becomes its simulation driver.
	r.c = ringtest.NewVirtualCluster(plan.Peers, opts,
		transport.WithLatency(transport.NewLogNormalLatency(latencyMedian, latencySigma, seed+1)),
		transport.WithDropProb(0, seed+2), // loss starts after warm-up
	)
	r.down = make([]bool, plan.Peers)
	return r
}

func docName(d int) string { return fmt.Sprintf("doc-%02d", d) }

func (r *runner) record(kind, doc, site string, ts uint64) {
	r.mu.Lock()
	ev := Event{Kind: kind, Doc: doc, Site: site, TS: ts, At: r.clk.Since(r.epoch)}
	r.res.Events = append(r.res.Events, ev)
	r.dig = r.dig.event(ev)
	r.mu.Unlock()
}

// newPeer creates an unjoined peer for a churn join and returns its
// index.
func (r *runner) newPeer() int {
	p := r.c.NewPeer()
	r.down = append(r.down, false)
	if r.partOn {
		// A peer born during a partition window joins on the majority
		// side of the split (simnet sends unmentioned endpoints to their
		// own group, where nobody could bootstrap them).
		r.partGroups[1] = append(r.partGroups[1], p.Addr())
		r.c.Net.Partition(r.partGroups...)
	}
	return len(r.c.Peers) - 1
}

func (r *runner) crash(i int) {
	if r.down[i] {
		return
	}
	r.c.Crash(r.c.Peers[i])
	r.down[i] = true
}

func (r *runner) livePeer() *core.Peer {
	for i, p := range r.c.Peers {
		if !r.down[i] && p.Node.Running() {
			return p
		}
	}
	return nil
}

func (r *runner) isHost(i int) bool {
	if r.gwHosts[i] {
		return true
	}
	for s, h := range r.hosts {
		if h == i && r.hostBusy[s] {
			return true
		}
	}
	return false
}

// run executes the compiled scenario; invariants.go takes over at the
// settle phase.
func (r *runner) run() {
	plan := r.plan
	defer r.c.Close()
	defer func() {
		for _, g := range r.gws {
			g.Close()
		}
	}()

	if plan.Gateways > 0 {
		r.startGateways()
	} else {
		// Reserve one host peer per session up front, spread over the
		// ring: churn victims are drawn from the rest, so a session dies
		// only when the plan kills its author (or master) on purpose.
		for i := 0; i < r.sessions; i++ {
			r.hosts = append(r.hosts, (i*plan.Peers)/r.sessions)
			r.hostBusy = append(r.hostBusy, true)
		}
	}

	_ = r.clk.Sleep(r.ctx, warmup)
	r.c.Net.SetDropProb(plan.LossRate)

	if plan.Gateways > 0 {
		r.startGatewaySessions()
	} else {
		r.startDirectSessions()
	}

	drained := r.driveWorkload()
	r.serveKills()
	if r.partOn {
		// A partition window outlasting the workload heals before the
		// settle phase: the invariants judge the converged system.
		r.c.Net.Heal()
		r.partOn = false
		r.partGroups = nil
		r.record("heal", "", "forced", 0)
	}
	workloadEnd := r.clk.Since(r.epoch)
	if !drained {
		r.res.check("workload-drain", false, "%d/%d sessions done within %s virtual",
			r.doneN, r.sessions, drainBudget)
	} else {
		r.res.check("workload-drain", true, "%d sessions drained by %s virtual", r.sessions, workloadEnd)
	}

	r.settle(workloadEnd)
	r.collectFlight()
	r.assembleForensics()
	r.collectCounters()
}

// driveWorkload samples the run: it serves boundary-author kills, fires
// due schedule actions, and returns once every session drained (false:
// budget exhausted).
func (r *runner) driveWorkload() bool {
	rng := rand.New(rand.NewSource(r.seed))
	next := 0
	for {
		_ = r.clk.Sleep(r.ctx, sample)
		r.sampleViewers()
		r.serveKills()
		now := r.clk.Since(r.epoch)
		for next < len(r.schedule) && r.schedule[next].at <= now {
			r.fire(r.schedule[next], rng)
			next++
		}
		r.advanceJoins()
		if next == len(r.schedule) && len(r.pending) == 0 && r.workloadDone() {
			return true
		}
		if now > drainBudget {
			return false
		}
	}
}

func (r *runner) workloadDone() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.doneN != r.sessions {
		return false
	}
	if r.plan.Gateways == 0 {
		return true
	}
	// Gateway editors ack asynchronously: every enqueued line must be
	// acked (batched-ops counts each exactly once, on its batch's ack).
	var acked int64
	for _, g := range r.gws {
		acked += g.Counters().Counter("batched-ops").Value()
	}
	return acked >= r.lines
}

func (r *runner) serveKills() {
	r.mu.Lock()
	pending := r.killReq
	r.killReq = nil
	for s, h := range r.hosts {
		for _, k := range pending {
			if h == k {
				r.hostBusy[s] = false
			}
		}
	}
	r.mu.Unlock()
	for _, k := range pending {
		r.crash(k)
	}
}

// fire applies one due schedule action.
func (r *runner) fire(a action, rng *rand.Rand) {
	switch a.kind {
	case "churn":
		r.fireChurn(a.b, rng)
	case "partition":
		frac := a.f.Fraction
		if frac == 0 {
			frac = 0.25
		}
		var live []transport.Addr
		for i, p := range r.c.Peers {
			if !r.down[i] {
				live = append(live, p.Addr())
			}
		}
		cut := int(float64(len(live)) * frac)
		if cut < 1 {
			cut = 1
		}
		if cut >= len(live) {
			return
		}
		r.partGroups = [][]transport.Addr{live[:cut], live[cut:]}
		r.c.Net.Partition(r.partGroups...)
		r.partOn = true
		r.record("partition", "", fmt.Sprintf("%d|%d", cut, len(live)-cut), 0)
	case "heal":
		if r.partOn {
			r.c.Net.Heal()
			r.partOn = false
			r.partGroups = nil
			r.record("heal", "", "", 0)
		}
	case "kill-master":
		if a.f.Doc >= r.plan.Docs {
			return
		}
		doc := docName(a.f.Doc)
		for i, p := range r.c.Peers {
			if r.down[i] || !p.Node.Running() {
				continue
			}
			master := false
			for _, st := range p.KTS.KeyStates() {
				if st.Key == doc && st.Master {
					master = true
					break
				}
			}
			if master {
				r.record("kill-master", doc, string(p.Addr()), 0)
				r.crash(i)
				return
			}
		}
	}
}

func (r *runner) fireChurn(b ChurnBatch, rng *rand.Rand) {
	var eligible []int
	for i := range r.c.Peers {
		if !r.down[i] && !r.isHost(i) {
			eligible = append(eligible, i)
		}
	}
	perm := rng.Perm(len(eligible))
	for k := 0; k < b.Crash && k < len(perm); k++ {
		v := eligible[perm[k]]
		r.crash(v)
		r.record("crash", "", string(r.c.Peers[v].Addr()), 0)
	}
	for k := 0; k < b.Join; k++ {
		r.pending = append(r.pending, pendingJoin{idx: r.newPeer()})
	}
}

// advanceJoins gives each due pending join one bounded attempt,
// rotating the bootstrap peer across attempts (under loss a bootstrap
// can keep answering a stale record until stabilization catches up).
func (r *runner) advanceJoins() {
	now := r.clk.Since(r.epoch)
	kept := r.pending[:0]
	for _, pj := range r.pending {
		if pj.nextAt > now {
			kept = append(kept, pj)
			continue
		}
		boot := -1
		for probe := 0; probe < len(r.c.Peers); probe++ {
			j := (pj.idx + 1 + pj.attempts + probe) % len(r.c.Peers)
			if j != pj.idx && !r.down[j] && r.c.Peers[j].Node.Running() && !r.cutOff(r.c.Peers[j].Addr()) {
				boot = j
				break
			}
		}
		var jerr error
		if boot < 0 {
			jerr = fmt.Errorf("no live bootstrap peer")
		} else if jerr = r.c.Peers[pj.idx].Join(r.ctx, r.c.Peers[boot].Addr()); jerr == nil {
			r.record("join", "", string(r.c.Peers[pj.idx].Addr()), 0)
			continue
		}
		pj.attempts++
		// Exponential backoff, capped: a struggling join's half-joined
		// record needs idle stretches long enough for liveness probes to
		// confirm suspicion and evict it (chord refuses RPCs between
		// attempts), or the ring never repairs and no attempt can land.
		backoff := time.Second << uint(pj.attempts-1)
		if backoff > 8*time.Second {
			backoff = 8 * time.Second
		}
		pj.nextAt = now + backoff
		if pj.attempts >= 30 {
			r.res.check("run", false, "churn join of %s gave up after %d attempts: %v", r.c.Peers[pj.idx].Addr(), pj.attempts, jerr)
			continue
		}
		kept = append(kept, pj)
	}
	r.pending = kept
}

// cutOff reports whether addr sits on the minority side of an active
// partition — no use bootstrapping a majority-side joiner from there.
func (r *runner) cutOff(addr transport.Addr) bool {
	if !r.partOn {
		return false
	}
	for _, a := range r.partGroups[0] {
		if a == addr {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Direct (replica) sessions.

func (r *runner) startDirectSessions() {
	plan := r.plan
	for s := 0; s < r.sessions; s++ {
		s := s
		d := s % plan.Docs
		doc := docName(d)
		doomed := r.doomed[d]
		site := fmt.Sprintf("site-%02d", s)
		hostIdx := r.hosts[s]
		host := r.c.Peers[hostIdx]
		ed, think := workload.SessionSpec{
			Site:           site,
			DeleteFraction: plan.DeleteFraction,
			ThinkMin:       thinkMin,
			ThinkMax:       thinkMax,
		}.Build(r.seed + 1000*int64(s))
		r.clk.Go(func() {
			defer r.sessionDone()
			rep := core.NewReplica(host, doc, site)
			rep.SetRebaseOntoCheckpoint(true)
			if doomed {
				rep.SetCheckpointProduction(false)
			}
			for e := 0; e < plan.EditsPerEditor; e++ {
				_ = r.clk.Sleep(r.ctx, think.Next())
				if !host.Node.Running() {
					return
				}
				ed.SetLength(len(rep.CommittedLines()))
				edit := ed.Next()
				var err error
				if edit.Kind == workload.EditDelete {
					err = rep.Delete(edit.Pos)
				} else {
					err = rep.Insert(edit.Pos, edit.Line)
				}
				if err != nil {
					return
				}
				for {
					// Each attempt is one trace: the span rides the context
					// through the master RPC and onward, so the remote
					// validate/serve segments share its trace ID and the
					// flight recorders stamp their events with it.
					sp := r.tracer.Start("commit", doc)
					cctx := trace.NewContext(r.ctx, sp)
					ts, err := rep.Commit(cctx)
					sp.EndErr(err)
					if err == nil {
						r.record("commit", doc, site, ts)
						if doomed && checkpoint.ShouldCheckpoint(checkpointInterval, ts) {
							// This session just authored a checkpoint
							// boundary: it dies here, snapshot unpublished.
							// The driver crashes the host at its next
							// sample; the session stops editing now.
							r.record("author-killed", doc, site, ts)
							r.mu.Lock()
							r.killReq = append(r.killReq, hostIdx)
							r.mu.Unlock()
							return
						}
						break
					}
					if errors.Is(err, core.ErrTentativeDropped) {
						// A checkpoint rebase clamped the edit away; the
						// replica is consistent, the edit is just lost.
						break
					}
					if !host.Node.Running() {
						return
					}
					_ = r.clk.Sleep(r.ctx, time.Second)
				}
			}
		})
	}
}

func (r *runner) sessionDone() {
	r.mu.Lock()
	r.doneN++
	r.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Gateway sessions.

func (r *runner) startGateways() {
	plan := r.plan
	gcfg := gateway.Config{
		BatchTick: batchTick,
		ProbeIdle: probeIdle,
		OnCommit: func(doc string, ts uint64, lat time.Duration) {
			at := r.clk.Since(r.epoch)
			r.mu.Lock()
			if r.commitAt[doc] == nil {
				r.commitAt[doc] = map[uint64]time.Duration{}
			}
			r.commitAt[doc][ts] = at
			ev := Event{Kind: "commit", Doc: doc, Site: "gw", TS: ts, At: at}
			r.res.Events = append(r.res.Events, ev)
			r.dig = r.dig.event(ev)
			r.mu.Unlock()
		},
		OnDeliver: func(doc string, ts uint64) {
			at := r.clk.Since(r.epoch)
			r.mu.Lock()
			r.res.Delivers++
			r.dig = r.dig.str("deliver").str(doc).u64(ts).u64(uint64(at))
			if cAt, ok := r.commitAt[doc][ts]; ok {
				if s := at - cAt; s > r.staleMax[doc] {
					r.staleMax[doc] = s
				}
			}
			r.mu.Unlock()
		},
	}
	for g := 0; g < plan.Gateways; g++ {
		h := (g * plan.Peers) / plan.Gateways
		r.gwHosts[h] = true
		r.gws = append(r.gws, gateway.New(r.c.Peers[h], gcfg))
	}
}

func (r *runner) startGatewaySessions() {
	plan := r.plan
	for s := 0; s < r.sessions; s++ {
		s := s
		d := s % plan.Docs
		doc := docName(d)
		site := fmt.Sprintf("site-%02d", s)
		gw := r.gws[s%len(r.gws)]
		ed := gw.Session(fmt.Sprintf("tenant-%d", s%(2*len(r.gws)))).Editor(doc, site)
		think := workload.NewThink(thinkMin, thinkMax, r.seed+1000*int64(s))
		r.clk.Go(func() {
			defer r.sessionDone()
			for e := 0; e < plan.EditsPerEditor; e++ {
				_ = r.clk.Sleep(r.ctx, think.Next())
				ed.Enqueue(fmt.Sprintf("%s/%d", site, e))
				r.mu.Lock()
				r.lines++
				r.mu.Unlock()
			}
		})
	}
	// Viewers shadow the editors round-robin over the gateways, plus
	// one convergence monitor per (doc, gateway) so every gateway's
	// fan-out is checked at settle.
	vIdx := 0
	for d := 0; d < plan.Docs; d++ {
		doc := docName(d)
		for k := 0; k < plan.EditorsPerDoc*plan.ViewersPerEditor; k++ {
			r.viewers = append(r.viewers, r.gws[vIdx%len(r.gws)].Session("viewers").Follower(doc))
			vIdx++
		}
		ms := make([]*gateway.Follower, len(r.gws))
		for g := range r.gws {
			ms[g] = r.gws[g].Session("viewers").Follower(doc)
		}
		r.monitors[doc] = ms
	}
}

// sampleViewers makes a rotating subset of viewers read each sample
// tick, so the follower fan-out carries real read traffic.
func (r *runner) sampleViewers() {
	if len(r.viewers) == 0 {
		return
	}
	for k := 0; k <= len(r.viewers)/20; k++ {
		r.viewers[r.vc%len(r.viewers)].Read()
		r.vc++
	}
}

// ---------------------------------------------------------------------------
// Final accounting.

// collectCounters snapshots the aggregate counters while the stack is
// still up: at this point the driver is the only runnable goroutine
// (everything else is parked on virtual waits), so the values are
// frozen and deterministic. Stopping peers first would race the reads
// against whatever in-flight maintenance the teardown interrupts.
func (r *runner) collectCounters() {
	res := r.res
	// The span stream closes here too: spans the teardown cuts short end
	// in whatever order the peers stop.
	r.tracer.SetSink(nil)
	agg := metrics.NewFamily()
	for _, p := range r.c.Peers {
		if p.Maint != nil {
			agg.Merge(p.Maint.Counters())
		}
	}
	for _, g := range r.gws {
		agg.Merge(g.Counters())
	}
	for k, v := range agg.Snapshot() {
		res.Counters[k] = v
	}
	for _, p := range r.c.Peers {
		g, rj, _ := p.KTS.Stats()
		res.Grants += g
		res.Rejects += rj
	}
	res.Sent, res.Dropped = r.c.Net.Stats()
	res.Virtual = r.clk.Since(r.epoch)
	for _, ev := range res.Events {
		switch ev.Kind {
		case "commit":
			res.Commits++
		case "author-killed":
			res.Kills++
		}
	}
}

// logSlots counts the log slots of doc still stored ring-wide (primary
// stores of live peers).
func (r *runner) logSlots(doc string) int {
	n := 0
	for i, p := range r.c.Peers {
		if r.down[i] {
			continue
		}
		for _, e := range p.DHT.Store().SnapshotMeta() {
			if key, _, ok := ids.ParseLogSlotName(e.Key); ok && key == doc {
				n++
			}
		}
	}
	return n
}

// coveredSlots counts doc's log slots ring-wide (primary and replica
// stores) whose ts sits at or below the reclaim horizon.
func (r *runner) coveredSlots(doc string, horizon uint64) int {
	if horizon == 0 {
		return 0
	}
	n := 0
	for i, p := range r.c.Peers {
		if r.down[i] {
			continue
		}
		meta := p.DHT.Store().SnapshotMeta()
		meta = append(meta, p.DHT.ReplicaStore().SnapshotMeta()...)
		for _, e := range meta {
			if key, ts, ok := ids.ParseLogSlotName(e.Key); ok && key == doc && ts <= horizon {
				n++
			}
		}
	}
	return n
}
