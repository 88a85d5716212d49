package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/core"
	"p2pltr/internal/ids"
)

// converger measures, per document, the time from its last ack until
// every editor replica and three cold readers on distinct live peers
// hold identical text at the final timestamp. The refresh of a document
// starts at the sample tick that finds it drained, while other documents
// are still being edited. A document that does not get there within the
// settle budget, or whose copies differ, is a failed operation.
type converger struct {
	c      *simCluster
	seed   int64
	tr     traceOpts
	out    *seedOut
	coldOK func(peer int) bool

	mu      *sync.Mutex // the seed's lock on out
	started int
	done    int
	// final holds, per converged document, the lines every copy agreed on.
	final map[string][]string
}

// start refreshes one document on its own goroutine.
func (v *converger) start(doc string, editors []*core.Replica, final uint64, lastAck time.Duration) {
	c := v.c
	reps := append([]*core.Replica(nil), editors...)
	// Three cold readers, or as many as one walk of the ring finds.
	for i, k, walked := (7+13*v.started)%len(c.peers), 0, 0; k < 3 && walked < len(c.peers); i, walked = (i+1)%len(c.peers), walked+1 {
		if c.live(i) && v.coldOK(i) {
			reps = append(reps, core.NewReplica(c.peers[i], doc, fmt.Sprintf("reader-%d", k)))
			k++
		}
	}
	v.started++
	c.clk.Go(func() {
		sp := v.tr.spans.start("converge", doc, nil)
		began := c.now()
		reached := make([]bool, len(reps))
		pulls := make([]func(), len(reps))
		for i, r := range reps {
			i, r := i, r
			pulls[i] = func() {
				for {
					psp := v.tr.spans.start("pull", doc, sp)
					err := r.Pull(c.ctx)
					psp.end()
					if err == nil && r.CommittedTS() >= final {
						reached[i] = true
						return
					}
					if c.now()-began > settleBudget {
						return
					}
					c.sleep(sampleEvery)
				}
			}
		}
		c.clk.Gather(pulls...)
		sp.end()
		v.mu.Lock()
		defer v.mu.Unlock()
		v.done++
		v.out.attempted++
		text := reps[0].CommittedText()
		for i, r := range reps {
			switch {
			case !reached[i]:
				v.out.anomaly(v.seed, "%s: a replica stuck at ts %d of %d after %s virtual", doc, r.CommittedTS(), final, settleBudget)
				return
			case r.CommittedTS() != final || r.CommittedText() != text:
				v.out.violation(v.seed, "%s: replicas diverge at final ts %d (one holds ts %d)", doc, final, r.CommittedTS())
				return
			}
		}
		v.out.converge.add(c.now() - lastAck)
		if v.final == nil {
			v.final = map[string][]string{}
		}
		v.final[doc] = reps[0].CommittedLines()
	})
}

// wait sleeps until every started refresh has finished.
func (v *converger) wait() {
	for {
		v.mu.Lock()
		pending := v.started - v.done
		v.mu.Unlock()
		if pending == 0 {
			return
		}
		v.c.sleep(sampleEvery)
	}
}

// lastAcks remembers, per document, its newest ack.
type lastAcks map[string]ack

func (l lastAcks) note(a ack) {
	if a.ts >= l[a.doc].ts {
		l[a.doc] = a
	}
}

// collectReplicaCounts sums what editor replicas know about their own
// catching up.
func collectReplicaCounts(out *seedOut, reps ...*core.Replica) {
	for _, r := range reps {
		behind, retrieved := r.Stats()
		out.bump("behind_rounds", float64(behind))
		out.bump("retrieved", float64(retrieved))
		_, boots := r.CheckpointStats()
		out.bump("ckpt_bootstraps", float64(boots))
	}
}

// checkTimestamps verifies the acked timestamps of doc are 1..final, each
// granted once. allowUnacked tolerates holes: where an editor can die
// between the grant and its ack, a hole is a lost ack, and continuity of
// the log itself is shown by the readers that replayed it to final.
func checkTimestamps(out *seedOut, seed int64, doc string, acks []ack, final uint64, allowUnacked bool) {
	seen := map[uint64]int{}
	for _, a := range acks {
		if a.doc == doc {
			seen[a.ts]++
		}
	}
	for ts := uint64(1); ts <= final; ts++ {
		switch n := seen[ts]; {
		case n > 1:
			out.violation(seed, "%s: ts %d granted to %d commits", doc, ts, n)
		case n == 0 && !allowUnacked:
			out.violation(seed, "%s: ts %d of %d never acked (gap)", doc, ts, final)
		}
	}
}

// checkLines verifies the final text: every acked line exactly once;
// lines in flight when their editor died at most once; nothing else.
func checkLines(out *seedOut, seed int64, doc string, final, acked, inFlight []string) {
	count := map[string]int{}
	for _, l := range final {
		count[l]++
	}
	bad := 0
	report := func(format string, args ...any) {
		if bad++; bad <= 3 {
			out.violation(seed, format, args...)
		}
	}
	for _, l := range acked {
		if count[l] != 1 {
			report("%s: acked line %q occurs %d times in the final text", doc, l, count[l])
		}
		delete(count, l)
	}
	for _, l := range inFlight {
		if count[l] > 1 {
			report("%s: unacked line %q occurs %d times in the final text", doc, l, count[l])
		}
		delete(count, l)
	}
	if len(count) > 0 {
		extra := make([]string, 0, len(count))
		for l := range count {
			extra = append(extra, l)
		}
		sort.Strings(extra)
		report("%s: %d lines nobody wrote in the final text (first %q)", doc, len(extra), extra[0])
	}
}

// collectSimCounts sums the counters the program exposes over every peer
// of the cluster, crashed ones included: their work was done.
func collectSimCounts(c *simCluster, out *seedOut) {
	sent, dropped := c.net.Stats()
	out.bump("msgs", float64(sent))
	out.bump("dropped", float64(dropped))
	collectPeerCounts(c.peers, func(i int) bool { return !c.down[i] }, out)
}

func collectPeerCounts(peers []*core.Peer, live func(i int) bool, out *seedOut) {
	for i, p := range peers {
		for name, v := range p.Node.Counters().Snapshot() {
			out.bump("chord_"+name, float64(v))
		}
		for name, v := range p.DHT.Counters().Snapshot() {
			out.bump("dht_"+name, float64(v))
		}
		for name, v := range p.Client.Counters().Snapshot() {
			out.bump("dhtc_"+name, float64(v))
		}
		grants, rejects, takeovers := p.KTS.Stats()
		fast, busy := p.KTS.AdmissionStats()
		out.bump("kts_grants", float64(grants))
		out.bump("kts_rejects", float64(rejects))
		out.bump("kts_takeovers", float64(takeovers))
		out.bump("kts_fast_rejects", float64(fast))
		out.bump("kts_busy_rejects", float64(busy))
		if p.Maint != nil {
			for name, v := range p.Maint.Counters().Snapshot() {
				out.bump("maint_"+name, float64(v))
			}
		}
		if !live(i) {
			continue
		}
		out.bump("live_peers", 1)
		for _, e := range p.DHT.Store().SnapshotAll() {
			out.bump("store_bytes", float64(len(e.Value)))
			if _, _, ok := ids.ParseLogSlotName(e.Key); ok {
				out.bump("log_slot_bytes", float64(len(e.Value)))
				out.bump("log_slots", 1)
			} else if _, _, ok := checkpoint.ParseSlotName(e.Key); ok {
				out.bump("ckpt_slot_bytes", float64(len(e.Value)))
				out.bump("ckpt_slots", 1)
			}
		}
	}
}

// checkpointLag notes how far the replicated checkpoint pointer trails
// the final timestamp, at worst over the documents.
func checkpointLag(c *simCluster, out *seedOut, docs []string, finalTS map[string]uint64) {
	var reader *core.Peer
	for i, p := range c.peers {
		if c.live(i) {
			reader = p
			break
		}
	}
	if reader == nil {
		return
	}
	for _, doc := range docs {
		ptr, err := reader.Ckpt.LatestPointer(c.ctx, doc)
		if err != nil || ptr > finalTS[doc] {
			continue
		}
		out.maxOf("ckpt_lag_max", float64(finalTS[doc]-ptr))
	}
}
