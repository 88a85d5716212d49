package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/trace"
)

// churnCfg sizes churn-heal: direct core.Replica sessions (no gateway) on
// a large ring that loses messages, members and Master-keys while the
// editors keep to their schedule. Times are virtual, since the epoch;
// the workload starts after the idle warm-up, at 10 s.
type churnCfg struct {
	peers, docs, editorsPerDoc, edits int
	thinkMaxMS                        int
	loss                              float64
	churnAt                           []time.Duration // crash churnN peers at each
	churnN                            int
	doomedDocs                        int             // documents 0..n-1: every boundary author ends at its checkpoint commit, snapshot unpublished
	killDocs                          []int           // documents whose Master-key is killed ...
	killAt                            []time.Duration // ... at these instants
	coldEvery                         time.Duration   // a cold reader opens on a random live peer this often
}

var churnHeal = churnCfg{
	peers: 256, docs: 12, editorsPerDoc: 3, edits: 8, thinkMaxMS: 4000, loss: 0.01,
	churnAt: []time.Duration{23 * time.Second, 43 * time.Second}, churnN: 10,
	doomedDocs: 2,
	killDocs:   []int{4, 5, 6, 7},
	killAt:     []time.Duration{15 * time.Second, 25 * time.Second, 35 * time.Second, 45 * time.Second},
	coldEvery:  time.Second,
}

func (c churnCfg) smoke() churnCfg {
	c.peers, c.docs, c.edits = 32, 6, 4
	c.churnAt, c.churnN = []time.Duration{14 * time.Second}, 2
	c.doomedDocs = 1
	c.killDocs, c.killAt = []int{4}, []time.Duration{13 * time.Second}
	c.coldEvery = 3 * time.Second
	return c
}

// runChurnSeed runs one seed of churn-heal.
func runChurnSeed(cfg churnCfg, seed int64, tr traceOpts) *seedOut {
	out := &seedOut{}
	wall0 := time.Now()
	c := newSimCluster(simConfig{peers: cfg.peers, maintain: true, traced: tr.traced(), seed: seed})
	defer c.close()
	tr.spans.bind(seed, c.clk.Now)
	var mu sync.Mutex // guards out and the bookkeeping below
	c.tracer.SetSink(stageSink(&mu, out))
	c.warmUp()
	c.net.SetDropProb(cfg.loss)

	// One host peer per session, spread over the ring; churn spares them,
	// so a session dies only when the plan kills its author or a
	// Master-key that happens to be its host.
	sessions := cfg.docs * cfg.editorsPerDoc
	hosts := make([]int, sessions)
	isHost := map[int]bool{}
	for s := range hosts {
		hosts[s] = (s * cfg.peers) / sessions
		isHost[hosts[s]] = true
	}
	out.setups = append(out.setups, time.Since(wall0))

	// ---- measured phase -------------------------------------------------
	wall1, cpu1 := time.Now(), cpuTime()
	t0 := c.now()
	sent0, _ := c.net.Stats()
	type ackRec struct {
		at      time.Duration
		session int
	}
	var (
		acks       []ack
		last       = lastAcks{}
		ackBy      = map[string]map[uint64]ackRec{}
		ackedLines = map[string][]string{}
		inFlight   = map[string]string{} // session's line awaiting its ack
		ended      = make([]bool, sessions)
		replicas   = make([]*core.Replica, sessions)
		killedAt   = map[string]time.Duration{} // doc -> Master-key kill awaiting the next ack
		firstOp    = time.Duration(-1)
	)
	for s := 0; s < sessions; s++ {
		s := s
		d := s % cfg.docs
		doc, site, doomed := docName(d), fmt.Sprintf("site-%02d", s), d < cfg.doomedDocs
		host := c.peers[hosts[s]]
		rng := rand.New(rand.NewSource(seed + 1000*int64(s)))
		ackBy[doc] = map[uint64]ackRec{}
		rep := core.NewReplica(host, doc, site)
		rep.SetRebaseOntoCheckpoint(true)
		if doomed {
			rep.SetCheckpointProduction(false)
		}
		replicas[s] = rep
		c.clk.Go(func() {
			defer func() {
				mu.Lock()
				ended[s] = true
				mu.Unlock()
			}()
			var seen uint64 // newest timestamp this editor has integrated
			for e := 0; e < cfg.edits; e++ {
				c.sleep(time.Duration(1+rng.Intn(cfg.thinkMaxMS)) * time.Millisecond)
				if !host.Node.Running() {
					return
				}
				line := fmt.Sprintf("%s/%d", site, e)
				if err := rep.Insert(rng.Intn(len(rep.CommittedLines())+1), line); err != nil {
					return
				}
				mu.Lock()
				inFlight[site] = line
				if firstOp < 0 {
					firstOp = c.now()
				}
				mu.Unlock()
				began := c.now()
				sp := tr.spans.start("commit", doc, nil)
				for {
					psp := c.tracer.Start("commit", doc)
					csp := tr.spans.start("replica-commit", doc, sp)
					ts, err := rep.Commit(trace.NewContext(c.ctx, psp))
					csp.end()
					psp.EndErr(err)
					mu.Lock()
					if err == nil {
						out.attempted++
						now := c.now()
						out.commit.add(now - began)
						out.allCommit.add(now - began)
						out.lines++
						acks = append(acks, ack{doc: doc, ts: ts, at: now})
						last.note(ack{doc: doc, ts: ts, at: now})
						if _, dup := ackBy[doc][ts]; !dup {
							ackBy[doc][ts] = ackRec{at: now, session: s}
						}
						ackedLines[doc] = append(ackedLines[doc], line)
						delete(inFlight, site)
						if at, ok := killedAt[doc]; ok {
							out.failover.add(now - at)
							delete(killedAt, doc)
						}
						// Staleness without a feed: a co-editor holds
						// another's commit once its own Commit has
						// integrated it.
						cur := rep.CommittedTS()
						for t := seen + 1; t <= cur; t++ {
							if a, ok := ackBy[doc][t]; ok && a.session != s {
								lag := now - a.at
								if lag < 0 {
									lag = 0
								}
								out.staleness.add(lag)
							}
						}
						seen = cur
						// A session that authored a checkpoint boundary of a
						// doomed document ends here, snapshot unpublished, so
						// only the maintenance engine's fallback can checkpoint.
						die := doomed && ts%checkpointInterval == 0
						mu.Unlock()
						sp.end()
						if die {
							return
						}
						break
					}
					if errors.Is(err, core.ErrTentativeDropped) {
						out.attempted++
						out.anomaly(seed, "%s: %s lost its edit to a checkpoint rebase", doc, site)
						delete(inFlight, site)
						mu.Unlock()
						sp.end()
						break
					}
					if !host.Node.Running() { // the host died under the call: nobody is left to fail
						mu.Unlock()
						sp.end()
						return
					}
					// The editor retries until its edit is acked: the error
					// costs this edit latency, it does not fail it.
					out.bump("commit_errors", 1)
					mu.Unlock()
					c.sleep(time.Second)
				}
			}
		})
	}

	// The fault schedule, in time order.
	type action struct {
		at   time.Duration
		kill int // document whose Master-key dies; -1 for a churn batch
	}
	var schedule []action
	for _, at := range cfg.churnAt {
		schedule = append(schedule, action{at: at, kill: -1})
	}
	for i, d := range cfg.killDocs {
		schedule = append(schedule, action{at: cfg.killAt[i], kill: d})
	}
	for i := range schedule { // insertion sort: the list is tiny
		for j := i; j > 0 && schedule[j].at < schedule[j-1].at; j-- {
			schedule[j], schedule[j-1] = schedule[j-1], schedule[j]
		}
	}
	frng := rand.New(rand.NewSource(seed + 3))
	fire := func(a action) {
		if a.kill >= 0 {
			doc := docName(a.kill)
			for i, p := range c.peers {
				if !c.live(i) {
					continue
				}
				for _, st := range p.KTS.KeyStates() {
					if st.Key == doc && st.Master {
						mu.Lock()
						killedAt[doc] = c.now()
						mu.Unlock()
						c.crash(i)
						return
					}
				}
			}
			return
		}
		var eligible []int
		for i := range c.peers {
			if c.live(i) && !isHost[i] {
				eligible = append(eligible, i)
			}
		}
		perm := frng.Perm(len(eligible))
		for k := 0; k < cfg.churnN && k < len(perm); k++ {
			c.crash(eligible[perm[k]])
		}
	}

	// Cold readers: NewReplica + Pull on a random live peer, until it
	// holds the timestamp that was current when it was opened.
	crng := rand.New(rand.NewSource(seed + 5))
	coldRunning := 0
	nextCold := t0 + cfg.coldEvery
	openCold := func(n int) {
		var livePeers []int
		for i := range c.peers {
			if c.live(i) && !isHost[i] {
				livePeers = append(livePeers, i)
			}
		}
		if len(livePeers) == 0 {
			return
		}
		pi := livePeers[crng.Intn(len(livePeers))]
		doc := docName(crng.Intn(cfg.docs))
		mu.Lock()
		target := last[doc].ts
		if target == 0 {
			mu.Unlock()
			return
		}
		coldRunning++
		mu.Unlock()
		c.clk.Go(func() {
			began := c.now()
			sp := tr.spans.start("cold-pull", doc, nil)
			rd := core.NewReplica(c.peers[pi], doc, fmt.Sprintf("cold-%d", n))
			var err error
			for {
				psp := tr.spans.start("pull", doc, sp)
				err = rd.Pull(c.ctx)
				psp.end()
				if (err == nil && rd.CommittedTS() >= target) || !c.live(pi) || c.now()-began > settleBudget {
					break
				}
				c.sleep(sampleEvery)
			}
			sp.end()
			mu.Lock()
			defer mu.Unlock()
			coldRunning--
			_, boots := rd.CheckpointStats()
			out.bump("ckpt_bootstraps", float64(boots))
			switch {
			case !c.live(pi): // the reader's peer was churned away: not a read
			case rd.CommittedTS() >= target:
				out.attempted++
				out.catchup.add(c.now() - began)
			default:
				out.attempted++
				out.anomaly(seed, "%s: cold reader stuck at ts %d of %d: %v", doc, rd.CommittedTS(), target, err)
			}
		})
	}

	conv := &converger{c: c, seed: seed, tr: tr, out: out, mu: &mu, coldOK: func(i int) bool { return !isHost[i] }}
	finalTS := map[string]uint64{}
	waiting := make([]int, cfg.docs)
	for d := range waiting {
		waiting[d] = d
	}
	// A document has drained when each of its sessions has finished or
	// died; its refresh starts then, over the replicas still hosted.
	startDrained := func() {
		kept := waiting[:0]
		for _, d := range waiting {
			doc := docName(d)
			mu.Lock()
			done := true
			var reps []*core.Replica
			for s := d; s < sessions; s += cfg.docs {
				done = done && ended[s]
				if c.live(hosts[s]) {
					reps = append(reps, replicas[s])
				}
			}
			final, at := last[doc].ts, last[doc].at
			mu.Unlock()
			if !done {
				kept = append(kept, d)
				continue
			}
			// The committed history can run past the last ack (an editor
			// that died between grant and ack): the live KTS entries know.
			for i, p := range c.peers {
				if ts, ok := p.KTS.LastTSLocal(doc); ok && c.live(i) && ts > final {
					final = ts
				}
			}
			finalTS[doc] = final
			conv.start(doc, reps, final, at)
		}
		waiting = kept
	}

	next, coldN, sampledGoroutines := 0, 0, false
	for {
		c.sleep(sampleEvery)
		now := c.now()
		for next < len(schedule) && schedule[next].at <= now {
			fire(schedule[next])
			next++
		}
		if len(waiting) > 0 && now >= nextCold {
			openCold(coldN)
			coldN++
			nextCold += cfg.coldEvery
		}
		if !sampledGoroutines && now-t0 >= 10*time.Second {
			out.maxOf("goroutines", float64(runtime.NumGoroutine()))
			sampledGoroutines = true
		}
		startDrained()
		if len(waiting) == 0 && next == len(schedule) {
			break
		}
		if now-t0 > drainBudget {
			mu.Lock()
			out.anomaly(seed, "drain budget overrun: %d documents still edited after %s virtual", len(waiting), drainBudget)
			mu.Unlock()
			break
		}
	}
	sent1, _ := c.net.Stats()
	out.bump("workload_msgs", float64(sent1-sent0))
	out.bump("workload_ns", float64(c.now()-t0))
	conv.wait()
	for {
		mu.Lock()
		n := coldRunning
		mu.Unlock()
		if n == 0 {
			break
		}
		c.sleep(sampleEvery)
	}
	out.measuredWall, out.measuredCPU = time.Since(wall1), cpuTime()-cpu1

	// ---- correctness, from outside ------------------------------------
	mu.Lock()
	out.acks = int64(len(acks))
	out.perStretch("cpu_ms_per_commit", div(ms(out.measuredCPU), float64(out.acks)))
	var lastAckAt time.Duration
	for _, a := range acks {
		if a.at > lastAckAt {
			lastAckAt = a.at
		}
	}
	if firstOp >= 0 && lastAckAt > firstOp {
		out.span = lastAckAt - firstOp
	}
	var docs []string
	for d := 0; d < cfg.docs; d++ {
		doc := docName(d)
		docs = append(docs, doc)
		if _, ok := finalTS[doc]; !ok {
			continue // never drained: the overrun is already counted
		}
		out.attempted++
		checkTimestamps(out, seed, doc, acks, finalTS[doc], true)
		text, ok := conv.final[doc]
		if !ok {
			continue // never converged: already counted
		}
		var unacked []string
		for s := d; s < sessions; s += cfg.docs {
			if l, ok := inFlight[fmt.Sprintf("site-%02d", s)]; ok {
				unacked = append(unacked, l)
			}
		}
		out.attempted++
		checkLines(out, seed, doc, text, ackedLines[doc], unacked)
	}
	mu.Unlock()

	collectSimCounts(c, out)
	collectReplicaCounts(out, replicas...)
	checkpointLag(c, out, docs, finalTS)
	out.bump("peers", float64(cfg.peers))
	out.bump("bg_msgs", float64(c.bgMsgs))
	if tr.probe != nil {
		tr.probe(c, out)
	}
	return out
}
