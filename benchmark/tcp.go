package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/trace"
)

// tcpCfg sizes tcp-commit: the one workload on the wall clock, and the
// only one whose messages are encoded onto a wire.
type tcpCfg struct {
	peers, clients int
	docLines       int           // each client's document is held at this many lines
	lineBytes      int           // bytes per committed line
	pullEvery      int           // commits between two cold pulls of the other client's document
	warmup         time.Duration // closed loop runs this long before anything is recorded
	stretch        time.Duration // the measured time is cut in stretches this long, each ended by convergence rounds
	convergeRounds int           // untimed convergence rounds after each stretch
	rssEvery       int           // the resident set is read each time this many more commits have been acked, warm-up included ...
	rssReads       int           // ... this many times; the run reports the median read
	setups         int           // the cluster is built this many times; the last one is used
}

var tcpCommit = tcpCfg{peers: 8, clients: 2, docLines: 64, lineBytes: 64, pullEvery: 8, warmup: 2 * time.Second, stretch: time.Second, convergeRounds: 4, rssEvery: 2000, rssReads: 5, setups: 3}

func (c tcpCfg) smoke() tcpCfg {
	c.peers, c.warmup, c.stretch, c.convergeRounds, c.setups, c.rssEvery, c.rssReads = 4, 200*time.Millisecond, 500*time.Millisecond, 1, 1, 50, 3
	return c
}

// tcpClient is one closed-loop editor: commit, wait for the ack, commit.
type tcpClient struct {
	doc   string
	rep   *core.Replica
	model []string // the document as this client wrote it
	n     int      // commits acked
	// seenOther is the newest timestamp of the other client's document
	// that one of this client's cold pulls has held.
	seenOther int
	rng       *rand.Rand
}

// runTCP runs tcp-commit for the given measured duration.
func runTCP(cfg tcpCfg, seed int64, measure time.Duration, tr traceOpts, probe func(*tcpCluster, *seedOut)) (*seedOut, error) {
	out := &seedOut{}
	tr.spans.bind(seed, nil)
	var c *tcpCluster
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.close()
		}
		began := time.Now()
		var err error
		if c, err = newTCPCluster(cfg.peers, tr.traced()); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(began))
	}
	defer c.close()
	var mu sync.Mutex // guards out and ackAt
	c.tracer.SetSink(stageSink(&mu, out))
	ctx := context.Background()

	clients := make([]*tcpClient, cfg.clients)
	ackAt := make([][]time.Time, cfg.clients) // per document, wall instant of the ack of ts (index ts-1)
	totalAcks := 0
	var rss []float64
	for i := range clients {
		doc := fmt.Sprintf("tcp-doc-%d", i)
		host := c.peers[(1+i*(cfg.peers/cfg.clients))%cfg.peers]
		clients[i] = &tcpClient{doc: doc, rep: core.NewReplica(host, doc, fmt.Sprintf("client-%d", i)), rng: rand.New(rand.NewSource(seed + int64(i)))}
	}
	reader := func(k int) *core.Peer { return c.peers[(2+k)%cfg.peers] }

	// stretch runs every client's closed loop until the deadline and
	// records into seg; with seg nil (the warm-up) nothing is measured.
	stretch := func(d time.Duration, seg *seedOut) {
		record := seg != nil
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *tcpClient) {
				defer wg.Done()
				other := (i + 1) % len(clients)
				for time.Now().Before(deadline) {
					line := fmt.Sprintf("c%d/%08d/", i, cl.n)
					for len(line) < cfg.lineBytes {
						line += string(rune('a' + cl.rng.Intn(26)))
					}
					_ = cl.rep.Insert(0, line) // position 0 always exists
					cl.model = append([]string{line}, cl.model...)
					if len(cl.model) > cfg.docLines {
						_ = cl.rep.Delete(cfg.docLines) // the model says the line is there
						cl.model = cl.model[:cfg.docLines]
					}
					sp := tr.spans.start("commit", cl.doc, nil)
					began := time.Now()
					var ts uint64
					var err error
					for {
						psp := c.tracer.Start("commit", cl.doc)
						cctx, cancel := context.WithTimeout(trace.NewContext(ctx, psp), 30*time.Second)
						ts, err = cl.rep.Commit(cctx)
						cancel()
						psp.EndErr(err)
						if err == nil {
							break
						}
						mu.Lock()
						out.attempted++
						out.anomaly(seed, "%s: commit failed: %v", cl.doc, err)
						mu.Unlock()
						time.Sleep(10 * time.Millisecond)
					}
					now := time.Now()
					sp.end()
					cl.n++
					mu.Lock()
					out.attempted++
					if ts != uint64(len(ackAt[i]))+1 {
						out.violation(seed, "%s: ts %d granted after %d (gap or duplicate)", cl.doc, ts, len(ackAt[i]))
					}
					ackAt[i] = append(ackAt[i], now)
					if totalAcks++; totalAcks%cfg.rssEvery == 0 && len(rss) < cfg.rssReads {
						// The ring keeps every checkpoint, so memory grows
						// with commits done: read at fixed counts, a faster
						// program is not charged for doing more in its time.
						rss = append(rss, collectedRSSMB())
					}
					if record {
						seg.commit.add(now.Sub(began))
						seg.allCommit.add(now.Sub(began))
						seg.acks++
						seg.lines++
					}
					mu.Unlock()
					if cl.n%cfg.pullEvery != 0 {
						continue
					}
					// A cold reader of the OTHER client's document, which
					// is being committed to meanwhile.
					psp := tr.spans.start("cold-pull", clients[other].doc, nil)
					began = time.Now()
					rd := core.NewReplica(reader(i), clients[other].doc, fmt.Sprintf("cold-%d-%d", i, cl.n))
					err = rd.Pull(ctx)
					now = time.Now()
					psp.end()
					mu.Lock()
					out.attempted++
					_, boots := rd.CheckpointStats()
					out.bump("ckpt_bootstraps", float64(boots))
					out.maxOf("goroutines", float64(runtime.NumGoroutine()))
					if err != nil {
						out.anomaly(seed, "%s: cold pull failed: %v", clients[other].doc, err)
					} else if record {
						seg.catchup.add(now.Sub(began))
						// Staleness: ack of ts to this reader first holding it.
						got := int(rd.CommittedTS())
						for t := cl.seenOther + 1; t <= got && t <= len(ackAt[other]); t++ {
							seg.staleness.add(now.Sub(ackAt[other][t-1]))
						}
					}
					if err == nil && int(rd.CommittedTS()) > cl.seenOther {
						cl.seenOther = int(rd.CommittedTS())
					}
					mu.Unlock()
				}
			}(i, cl)
		}
		wg.Wait()
	}

	// converge refreshes three cold readers per document, all at once, and
	// checks them against what the client wrote.
	converge := func(seg *seedOut) {
		var wg sync.WaitGroup
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *tcpClient) {
				defer wg.Done()
				mu.Lock()
				final := uint64(len(ackAt[i]))
				mu.Unlock()
				if final == 0 {
					return
				}
				began := time.Now() // the clients have just stopped: the last ack is now
				sp := tr.spans.start("converge", cl.doc, nil)
				reps := []*core.Replica{cl.rep}
				for k := 0; k < 3; k++ {
					reps = append(reps, core.NewReplica(reader(i+k), cl.doc, fmt.Sprintf("reader-%d", k)))
				}
				errs := make([]error, len(reps))
				var pulls sync.WaitGroup
				for k, r := range reps {
					pulls.Add(1)
					go func(k int, r *core.Replica) {
						defer pulls.Done()
						psp := tr.spans.start("pull", cl.doc, sp)
						errs[k] = r.Pull(ctx)
						psp.end()
					}(k, r)
				}
				pulls.Wait()
				sp.end()
				took := time.Since(began)
				want := strings.Join(cl.model, "\n")
				mu.Lock()
				defer mu.Unlock()
				out.attempted++
				for k, r := range reps {
					if errs[k] != nil || r.CommittedTS() != final || r.CommittedText() != want {
						out.violation(seed, "%s: a replica at ts %d of %d differs from what the client wrote (pull error: %v)", cl.doc, r.CommittedTS(), final, errs[k])
						return
					}
				}
				seg.converge.add(took)
			}(i, cl)
		}
		wg.Wait()
	}

	stretch(cfg.warmup, nil)
	for left := measure; left > 0; left -= cfg.stretch {
		seg := &seedOut{}
		wall, cpu := time.Now(), cpuTime()
		stretch(cfg.stretch, seg)
		seg.measuredWall, seg.measuredCPU = time.Since(wall), cpuTime()-cpu
		seg.span = seg.measuredWall
		for round := 0; round < cfg.convergeRounds; round++ {
			converge(seg)
		}
		// Every time this workload reports is wall time on a host that
		// others use too: second by second, throughput swings by a factor
		// of two. Medians and rates are therefore read per stretch and the
		// run reports the median stretch, which repeats far better than the
		// pooled value. (Not the best stretch: seconds also differ for
		// reasons of the program's own, such as maintenance passes and
		// collections.) A tail is a property of the whole run: p99 is over
		// the pooled samples.
		for name, v := range gatedValues(seg) {
			switch name {
			case "commit_p50_ms", "staleness_p50_ms", "catchup_p50_ms", "goodput_lines_per_s", "cpu_ms_per_commit":
				seg.perStretch(name, v)
			}
		}
		mu.Lock()
		out.merge(seg)
		mu.Unlock()
	}

	out.rssMB = median(rss)
	collectPeerCounts(c.peers, func(int) bool { return true }, out)
	for _, cl := range clients {
		collectReplicaCounts(out, cl.rep)
	}
	out.bump("peers", float64(cfg.peers))
	if probe != nil {
		probe(c, out)
	}
	return out, nil
}
