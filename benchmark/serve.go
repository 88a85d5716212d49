package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/trace"
)

// serveCfg sizes one gateway-serving workload. serve-hot and
// serve-spread share the cluster, the gateways, the viewers and the
// offered lines per second (48 editors, same think time); they differ
// only in how the editors are spread over documents.
type serveCfg struct {
	name                    string
	peers, gateways, docs   int
	hotEditors, tailEditors int // tail editors: Zipf(1.4) on serve-hot, one per document on serve-spread
	bursts                  int // bursts of 1-3 lines per editor
	viewersPerEditor        int
	admission               int
	coldAt                  time.Duration // workload start to the late gateway's mount
	coldDocs                int           // cold followers opened on it, one per sample tick
}

const (
	serveBatchTick = 250 * time.Millisecond
	serveProbeIdle = 2 * time.Second
	sampleEvery    = 500 * time.Millisecond
	drainBudget    = 300 * time.Second // virtual, from workload start
	settleBudget   = 300 * time.Second // virtual, per wait after the drain
)

var serveHot = serveCfg{
	name: "serve-hot", peers: 64, gateways: 4, docs: 64,
	hotEditors: 32, tailEditors: 16, bursts: 6, viewersPerEditor: 100, admission: 8,
	coldAt: 4 * time.Second, coldDocs: 6,
}

var serveSpread = serveCfg{
	name: "serve-spread", peers: 64, gateways: 4, docs: 48,
	hotEditors: 0, tailEditors: 48, bursts: 24, viewersPerEditor: 100, admission: 8,
	coldAt: 8 * time.Second, coldDocs: 6,
}

func (c serveCfg) smoke() serveCfg {
	c.peers, c.docs = 24, 12
	if c.hotEditors > 0 {
		c.hotEditors, c.tailEditors = 6, 3
	} else {
		c.tailEditors = 9
	}
	c.bursts = 4
	c.viewersPerEditor = 5
	c.coldAt, c.coldDocs = 2*time.Second, 2
	return c
}

func docName(d int) string { return fmt.Sprintf("doc-%03d", d) }

// traceOpts is what a traced run adds to a seed: the benchmark's span
// log, the program's tracer, and a callback that probes the layers on
// the still-live cluster after the workload has drained.
type traceOpts struct {
	spans *spanLog
	probe func(c *simCluster, out *seedOut)
}

func (t traceOpts) traced() bool { return t.spans != nil }

// ack is one acked commit.
type ack struct {
	doc string
	ts  uint64
	at  time.Duration // virtual instant of the ack
	gw  int
}

// delivery is one snapshot a gateway's feed published.
type delivery struct {
	ts uint64
	at time.Duration
}

// stageSink folds the program's commit spans into per-stage time.
func stageSink(mu *sync.Mutex, out *seedOut) func(trace.SpanData) {
	return func(d trace.SpanData) {
		mu.Lock()
		defer mu.Unlock()
		out.bump("program_spans", 1)
		if d.Kind != "commit" {
			return
		}
		if out.stage == nil {
			out.stage = map[string]time.Duration{}
		}
		for _, ev := range d.Events {
			if !ev.Note {
				out.stage[ev.Stage] += ev.Dur
			}
		}
	}
}

// runServeSeed runs one seed of a gateway-serving workload.
func runServeSeed(cfg serveCfg, seed int64, tr traceOpts) *seedOut {
	out := &seedOut{}
	wall0 := time.Now()
	c := newSimCluster(simConfig{peers: cfg.peers, admission: cfg.admission, traced: tr.traced(), seed: seed})
	defer c.close()
	tr.spans.bind(seed, c.clk.Now)
	c.warmUp()

	// mu guards everything the hooks and generators append to. The
	// virtual scheduler runs one goroutine at a time, so append order
	// repeats exactly.
	var mu sync.Mutex
	c.tracer.SetSink(stageSink(&mu, out))
	var acks []ack
	last := lastAcks{}
	lats := map[string][]time.Duration{} // doc -> enqueue-to-ack latencies
	delivers := make([]map[string][]delivery, cfg.gateways)
	enqueuedAt := map[string]map[int64]time.Time{} // traced: doc -> virtual enqueue ns -> wall instant
	gws := make([]*gateway.Gateway, cfg.gateways)
	gwHost := map[int]bool{}
	for g := range gws {
		g := g
		delivers[g] = map[string][]delivery{}
		host := (g * cfg.peers) / cfg.gateways
		gwHost[host] = true
		gws[g] = gateway.New(c.peers[host], gateway.Config{
			BatchTick: serveBatchTick,
			ProbeIdle: serveProbeIdle,
			OnCommit: func(doc string, ts uint64, lat time.Duration) {
				mu.Lock()
				a := ack{doc: doc, ts: ts, at: c.now(), gw: g}
				acks = append(acks, a)
				last.note(a)
				lats[doc] = append(lats[doc], lat)
				var wallStart time.Time
				if m := enqueuedAt[doc]; m != nil {
					wallStart = m[c.clk.Now().Add(-lat).UnixNano()]
				}
				mu.Unlock()
				tr.spans.closed("enqueue-ack", doc, lat, wallStart)
			},
			OnDeliver: func(doc string, ts uint64) {
				mu.Lock()
				delivers[g][doc] = append(delivers[g][doc], delivery{ts: ts, at: c.now()})
				mu.Unlock()
			},
		})
		defer gws[g].Close()
	}
	coldHost := cfg.peers - 1
	gwHost[coldHost] = true

	// Tenants. The program only ever sees the generated edits.
	var editorDoc []int
	for i := 0; i < cfg.hotEditors; i++ {
		editorDoc = append(editorDoc, 0)
	}
	if cfg.hotEditors > 0 {
		zipf := rand.NewZipf(rand.New(rand.NewSource(seed+7)), 1.4, 1, uint64(cfg.docs-2))
		for i := 0; i < cfg.tailEditors; i++ {
			editorDoc = append(editorDoc, 1+int(zipf.Uint64()))
		}
	} else {
		for i := 0; i < cfg.tailEditors; i++ {
			editorDoc = append(editorDoc, i%cfg.docs)
		}
	}
	editorsPerDoc := make([]int, cfg.docs)
	editors := make([]*gateway.Editor, len(editorDoc))
	docReplicas := map[string][]*core.Replica{}
	for i, d := range editorDoc {
		editorsPerDoc[d]++
		sess := gws[i%cfg.gateways].Session(fmt.Sprintf("tenant-%d", i%(2*cfg.gateways)))
		editors[i] = sess.Editor(docName(d), fmt.Sprintf("site-%03d", i))
		docReplicas[docName(d)] = append(docReplicas[docName(d)], editors[i].Replica())
	}
	var viewers []*gateway.Follower
	monitors := map[string][]*gateway.Follower{}
	var active []string
	v := 0
	for d := 0; d < cfg.docs; d++ {
		if editorsPerDoc[d] == 0 {
			continue
		}
		doc := docName(d)
		active = append(active, doc)
		for k := 0; k < editorsPerDoc[d]*cfg.viewersPerEditor; k++ {
			viewers = append(viewers, gws[v%cfg.gateways].Session("viewers").Follower(doc))
			v++
		}
		for g := range gws {
			monitors[doc] = append(monitors[doc], gws[g].Session("viewers").Follower(doc))
		}
	}
	out.setups = append(out.setups, time.Since(wall0))

	// ---- measured phase -------------------------------------------------
	wall1, cpu1 := time.Now(), cpuTime()
	t0 := c.now()
	sent0, _ := c.net.Stats()
	sentLines := map[string][]string{}
	firstEnqueue := time.Duration(-1)
	genDone := map[string]int{} // doc -> editors that have sent their last line
	for i := range editors {
		i := i
		ed, doc := editors[i], docName(editorDoc[i])
		rng := rand.New(rand.NewSource(seed + 1000*int64(i)))
		c.clk.Go(func() {
			for e := 0; e < cfg.bursts; e++ {
				c.sleep(time.Duration(200+rng.Intn(1200)) * time.Millisecond)
				burst := 1 + rng.Intn(3)
				mu.Lock()
				if firstEnqueue < 0 {
					firstEnqueue = c.now()
				}
				if tr.traced() {
					if enqueuedAt[doc] == nil {
						enqueuedAt[doc] = map[int64]time.Time{}
					}
					if _, ok := enqueuedAt[doc][c.clk.Now().UnixNano()]; !ok {
						enqueuedAt[doc][c.clk.Now().UnixNano()] = time.Now()
					}
				}
				mu.Unlock()
				for b := 0; b < burst; b++ {
					line := fmt.Sprintf("s%03d/%d.%d", i, e, b)
					ed.Enqueue(line)
					mu.Lock()
					sentLines[doc] = append(sentLines[doc], line)
					out.lines++
					mu.Unlock()
				}
			}
			mu.Lock()
			genDone[doc]++
			mu.Unlock()
		})
	}

	gwCounter := func(name string) int64 {
		var n int64
		for _, g := range gws {
			n += g.Counters().Counter(name).Value()
		}
		return n
	}
	vc := 0
	sampleViewers := func() {
		for k := 0; len(viewers) > 0 && k <= len(viewers)/20; k++ {
			viewers[vc%len(viewers)].Read()
			vc++
		}
	}
	// The late gateway: mounted mid-run on a peer that served nobody, it
	// opens one cold follower per sample tick. A follower has caught up
	// when its feed first publishes the timestamp that was current when
	// it was opened.
	type coldRead struct {
		target uint64
		at     time.Duration
		sp     *openSpan
	}
	var gwCold *gateway.Gateway
	coldPending := map[string]*coldRead{}
	coldOrder := append([]string(nil), active...)
	rand.New(rand.NewSource(seed+11)).Shuffle(len(coldOrder), func(i, j int) { coldOrder[i], coldOrder[j] = coldOrder[j], coldOrder[i] })
	if cfg.hotEditors > 0 { // the hot document first
		for i, d := range coldOrder {
			if d == docName(0) {
				coldOrder[0], coldOrder[i] = coldOrder[i], coldOrder[0]
			}
		}
	}
	coldOpened := 0
	openCold := func() {
		if coldOpened >= cfg.coldDocs || c.now()-t0 < cfg.coldAt {
			return
		}
		if gwCold == nil {
			out.maxOf("goroutines", float64(runtime.NumGoroutine()))
			gwCold = gateway.New(c.peers[coldHost], gateway.Config{
				BatchTick: serveBatchTick,
				ProbeIdle: serveProbeIdle,
				OnDeliver: func(doc string, ts uint64) {
					mu.Lock()
					if cr := coldPending[doc]; cr != nil && ts >= cr.target {
						out.catchup.add(c.now() - cr.at)
						cr.sp.end()
						delete(coldPending, doc)
					}
					mu.Unlock()
				},
			})
		}
		mu.Lock()
		defer mu.Unlock()
		for i, doc := range coldOrder {
			target := last[doc].ts
			if target == 0 {
				continue // nothing committed yet: nothing to catch up to
			}
			coldOrder = append(coldOrder[:i], coldOrder[i+1:]...)
			coldPending[doc] = &coldRead{target: target, at: c.now(), sp: tr.spans.start("follower-catchup", doc, nil)}
			coldOpened++
			out.attempted++
			gwCold.Session("late-tenant").Follower(doc)
			return
		}
	}
	defer func() {
		if gwCold != nil {
			gwCold.Close()
		}
	}()

	// A document has drained when its editors are done and a monitor's
	// snapshot holds every line sent to it; its refresh starts then.
	conv := &converger{c: c, seed: seed, tr: tr, out: out, mu: &mu, coldOK: func(i int) bool { return !gwHost[i] }}
	finalTS := map[string]uint64{}
	waiting := append([]string(nil), active...)
	startDrained := func() {
		kept := waiting[:0]
		for _, doc := range waiting {
			mu.Lock()
			ready, want := genDone[doc] == len(docReplicas[doc]), len(sentLines[doc])
			acked := last[doc].ts
			mu.Unlock()
			if ready {
				// A feed can publish a commit before the committing
				// editor's own ack lands: wait for that ack too.
				ready = false
				for _, m := range monitors[doc] {
					if text, ts := m.Read(); text != "" && strings.Count(text, "\n")+1 == want && acked >= ts {
						ready = true
						break
					}
				}
			}
			if !ready {
				kept = append(kept, doc)
				continue
			}
			if conv.started == 0 {
				// Only editors and followers have run so far, and neither
				// asks a Master-key for last_ts: any call counted here is
				// the read path leaking into the KTS.
				for _, p := range c.peers {
					out.bump("kts_last_ts_calls", float64(p.KTS.LastTSCalls()))
				}
			}
			mu.Lock()
			final := last[doc]
			mu.Unlock()
			finalTS[doc] = final.ts
			conv.start(doc, docReplicas[doc], final.ts, final.at)
		}
		waiting = kept
	}
	for len(waiting) > 0 {
		c.sleep(sampleEvery)
		sampleViewers()
		openCold()
		startDrained()
		if c.now()-t0 > drainBudget {
			mu.Lock()
			for _, doc := range waiting {
				out.anomaly(seed, "%s: drain budget overrun, not every line acked after %s virtual", doc, drainBudget)
				finalTS[doc] = last[doc].ts
			}
			mu.Unlock()
			break
		}
	}
	drained := len(waiting) == 0
	workloadEnd := c.now()
	sent1, _ := c.net.Stats()
	out.bump("workload_msgs", float64(sent1-sent0))
	out.bump("workload_ns", float64(c.now()-t0))

	// Settle: the monitor on every gateway reaches each document's final
	// timestamp, every cold follower catches up, every refresh finishes.
	settled := func() bool {
		for doc, ms := range monitors {
			for _, m := range ms {
				if m.TS() < finalTS[doc] {
					return false
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return len(coldPending) == 0
	}
	for !settled() && c.now()-workloadEnd <= settleBudget {
		c.sleep(sampleEvery)
		sampleViewers()
		openCold()
	}
	conv.wait()
	out.measuredWall, out.measuredCPU = time.Since(wall1), cpuTime()-cpu1

	// ---- correctness, from outside ------------------------------------
	mu.Lock()
	out.acks = int64(len(acks))
	out.perStretch("cpu_ms_per_commit", div(ms(out.measuredCPU), float64(out.acks)))
	out.attempted += len(acks) + int(gwCounter("commit-errors"))
	for n := gwCounter("commit-errors"); n > 0; n-- {
		out.anomaly(seed, "a gateway commit returned an error")
	}
	var lastAckAt time.Duration
	for _, a := range acks {
		if a.at > lastAckAt {
			lastAckAt = a.at
		}
	}
	if firstEnqueue >= 0 && lastAckAt > firstEnqueue {
		out.span = lastAckAt - firstEnqueue
	}
	for _, doc := range active {
		out.attempted += 2
		checkTimestamps(out, seed, doc, acks, finalTS[doc], false)
		for g, m := range monitors[doc] {
			if m.TS() < finalTS[doc] {
				out.anomaly(seed, "%s: monitor on gateway %d at ts %d of %d", doc, g, m.TS(), finalTS[doc])
			}
		}
		if text, ok := conv.final[doc]; ok && drained {
			out.attempted++
			checkLines(out, seed, doc, text, sentLines[doc], nil)
		}
	}
	for _, doc := range active { // in document order, so that the list repeats exactly
		if cr := coldPending[doc]; cr != nil {
			out.anomaly(seed, "%s: cold follower never reached ts %d", doc, cr.target)
		}
	}

	// Latencies. On serve-hot the gate is the hot document; the tail
	// documents are the bystanders of its convoy.
	for doc, ls := range lats {
		for _, l := range ls {
			out.allCommit.add(l)
			if cfg.hotEditors > 0 && doc != docName(0) {
				out.bystander.add(l)
			} else {
				out.commit.add(l)
			}
		}
	}
	// Staleness: ack of ts to the first snapshot holding it on each
	// OTHER gateway. A feed can publish a state before the committing
	// editor's own ack lands; that clamps to zero.
	for _, a := range acks {
		for g := range gws {
			if g == a.gw {
				continue
			}
			ds := delivers[g][a.doc]
			i := sort.Search(len(ds), func(i int) bool { return ds[i].ts >= a.ts })
			if i == len(ds) {
				continue
			}
			s := ds[i].at - a.at
			if s < 0 {
				s = 0
			}
			out.staleness.add(s)
		}
	}
	mu.Unlock()

	collectSimCounts(c, out)
	for _, g := range gws {
		for name, val := range g.Counters().Snapshot() {
			out.bump("gw_"+name, float64(val))
		}
	}
	if gwCold != nil {
		out.bump("gw_follower-bootstraps", float64(gwCold.Counters().Counter("follower-bootstraps").Value()))
	}
	for _, reps := range docReplicas {
		collectReplicaCounts(out, reps...)
	}
	checkpointLag(c, out, active, finalTS)
	out.bump("peers", float64(len(c.peers)))
	out.bump("bg_msgs", float64(c.bgMsgs))
	if tr.probe != nil {
		tr.probe(c, out)
	}
	return out
}
