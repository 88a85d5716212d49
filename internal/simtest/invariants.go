package simtest

import (
	"fmt"
	"sort"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
)

// settle runs the end-of-plan invariant suite. Checks are appended in a
// fixed order so the verdict list (and hence the digest) is part of the
// deterministic trace. Nothing here aborts: a violated invariant is a
// failed Check, and the remaining invariants still run so a campaign
// report shows the full failure shape.
func (r *runner) settle(workloadEnd time.Duration) {
	plan := r.plan
	interval := plan.CheckpointInterval
	budget := ms(plan.SettleBudgetMS)
	deadline := workloadEnd + budget
	past := func(d time.Duration) bool { return r.clk.Since(r.epoch) > d }

	// Authoritative per-document final timestamp: the max of every live
	// KTS's local last_ts and every granted timestamp we observed. The
	// two sources normally agree; after a master kill the surviving KTS
	// view can lag until the next takeover, and the committed history
	// (which readers must still converge to) is the larger of the two.
	maxEventTS := map[string]uint64{}
	commitsPerDoc := map[string]int{}
	for _, ev := range r.res.Events {
		if ev.Kind != "commit" {
			continue
		}
		commitsPerDoc[ev.Doc]++
		if ev.TS > maxEventTS[ev.Doc] {
			maxEventTS[ev.Doc] = ev.TS
		}
	}
	finalTS := func(doc string) uint64 {
		max := maxEventTS[doc]
		for i, p := range r.c.Peers {
			if r.down[i] {
				continue
			}
			if ts, ok := p.KTS.LastTSLocal(doc); ok && ts > max {
				max = ts
			}
		}
		return max
	}

	reports := make([]DocReport, plan.Docs)
	for d := range reports {
		doc := docName(d)
		reports[d] = DocReport{
			Doc:     doc,
			Doomed:  r.doomed[d],
			FinalTS: finalTS(doc),
			Commits: commitsPerDoc[doc],
			ConvLag: -1,
		}
	}

	// Invariant: all-replica convergence. Cold readers on distinct
	// surviving peers must each pull the full committed history
	// (checkpoint bootstrap + log tail) and agree on the text.
	convOK, convDetail, convKey := true, "", ""
	for d := range reports {
		doc := reports[d].Doc
		readers := r.coldReaders(doc, 3)
		if len(readers) == 0 {
			convOK, convDetail, convKey = false, "no live peer to read from", doc
			break
		}
		caughtUp := func() bool {
			for _, rd := range readers {
				if err := rd.Pull(r.ctx); err != nil || rd.CommittedTS() < reports[d].FinalTS {
					return false
				}
			}
			return true
		}
		for !caughtUp() {
			if past(deadline) {
				convOK, convKey = false, doc
				convDetail = fmt.Sprintf("%s: reader stuck at %d of %d after %s",
					doc, readers[0].CommittedTS(), reports[d].FinalTS, budget)
				break
			}
			_ = r.clk.Sleep(r.ctx, ms(plan.SampleMS))
		}
		if !convOK {
			break
		}
		reports[d].ConvLag = r.clk.Since(r.epoch) - workloadEnd
		want := readers[0].CommittedText()
		for _, rd := range readers[1:] {
			if rd.CommittedText() != want {
				convOK, convKey = false, doc
				convDetail = fmt.Sprintf("%s: replica texts diverge at ts %d", doc, reports[d].FinalTS)
			}
		}
	}
	r.res.checkk("convergence", convKey, convOK, "%s", orf(convDetail, "all %d docs converged on %d cold readers", plan.Docs, 3))

	// Invariant: checkpoint lag < interval. The replicated pointer must
	// reach the last boundary of every document — on doomed documents no
	// author ever snapshotted, so only maintain's fallback producer can
	// get it there. With maintenance disabled the pointer is judged
	// as-is (no wait): that configuration exists to demonstrate the
	// violation.
	lagOK, lagDetail, lagKey := true, "", ""
	for d := range reports {
		doc := reports[d].Doc
		boundary := reports[d].FinalTS - reports[d].FinalTS%interval
		for {
			var ptr uint64
			if p := r.livePeer(); p != nil {
				ptr, _ = p.Ckpt.LatestPointer(r.ctx, doc)
			}
			reports[d].CkptPtr = ptr
			if ptr >= boundary || plan.DisableMaintain && reports[d].Doomed {
				break
			}
			if past(deadline) {
				break
			}
			_ = r.clk.Sleep(r.ctx, ms(plan.SampleMS))
		}
		reports[d].CkptLag = reports[d].FinalTS - reports[d].CkptPtr
		if reports[d].CkptLag >= interval && reports[d].FinalTS >= interval {
			lagOK, lagKey = false, doc
			lagDetail = fmt.Sprintf("%s: pointer %d lags final ts %d by %d (interval %d)",
				doc, reports[d].CkptPtr, reports[d].FinalTS, reports[d].CkptLag, interval)
		}
	}
	r.res.checkk("checkpoint-lag", lagKey, lagOK, "%s", orf(lagDetail, "pointer within %d of final ts on all docs", interval))

	// Invariant: truncation reclaims the checkpoint-covered log prefix —
	// no slot at or below the reclaim horizon (pointer minus the
	// KeepIntervals margin) may survive ring-wide, on any peer, even one
	// that never learned the floor (only meaningful when maintenance
	// runs; with it disabled nothing ever truncates).
	if !plan.DisableMaintain {
		reclaimOK, reclaimDetail, reclaimKey := true, "", ""
		for d := range reports {
			doc := reports[d].Doc
			reclaimTo := uint64(0)
			if reports[d].CkptPtr > interval {
				reclaimTo = reports[d].CkptPtr - interval
			}
			for r.coveredSlots(doc, reclaimTo) > 0 {
				if past(workloadEnd + 2*budget) {
					reclaimOK, reclaimKey = false, doc
					reclaimDetail = fmt.Sprintf("%s: %d slots at or below reclaim horizon %d still stored",
						doc, r.coveredSlots(doc, reclaimTo), reclaimTo)
					break
				}
				_ = r.clk.Sleep(r.ctx, ms(plan.SampleMS))
			}
			reports[d].LogSlots = r.logSlots(doc)
		}
		r.res.checkk("log-reclaim", reclaimKey, reclaimOK, "%s", orf(reclaimDetail, "no slot below any doc's reclaim horizon"))
	}

	// Invariant: no slot below a peer's own truncation floor survives in
	// its stores. Floors that arrive out of band sweep lazily (the next
	// maintenance walk), so give the sweeps a grace period first.
	_ = r.clk.Sleep(r.ctx, 5*time.Second)
	leaks, leakDetail, leakKey := 0, "", ""
	for i, p := range r.c.Peers {
		if r.down[i] || !p.Node.Running() {
			continue
		}
		meta := p.DHT.Store().SnapshotMeta()
		meta = append(meta, p.DHT.ReplicaStore().SnapshotMeta()...)
		for _, e := range meta {
			key, ts, ok := ids.ParseLogSlotName(e.Key)
			if ok && ts <= p.DHT.Floor(key) {
				leaks++
				leakKey = key
				leakDetail = fmt.Sprintf("%s holds %s at ts %d under floor %d", p.Addr(), e.Key, ts, p.DHT.Floor(key))
			}
		}
	}
	r.res.checkk("no-floor-leaks", leakKey, leaks == 0, "%s", orf(leakDetail, "no slot below any peer's floor"))

	// Invariant: KTS timestamp monotonicity. Granted timestamps are
	// unique per document (a master takeover that regressed last_ts
	// would re-grant and show up here as a duplicate) and strictly
	// increasing per editing site. Gateway-mode commit records carry the
	// synthetic "gw" site and interleave across gateways, so the
	// per-site ordering leg applies to real sites only.
	monoOK, monoDetail, monoKey := true, "", ""
	seen := map[string]map[uint64]bool{}
	lastBySite := map[string]uint64{}
	grants := 0
	for _, ev := range r.res.Events {
		if ev.Kind != "commit" {
			continue
		}
		grants++
		if seen[ev.Doc] == nil {
			seen[ev.Doc] = map[uint64]bool{}
		}
		if seen[ev.Doc][ev.TS] {
			monoOK, monoKey = false, ev.Doc
			monoDetail = fmt.Sprintf("%s: ts %d granted twice", ev.Doc, ev.TS)
		}
		seen[ev.Doc][ev.TS] = true
		if ev.Site != "gw" {
			k := ev.Doc + "|" + ev.Site
			if ev.TS <= lastBySite[k] {
				monoOK, monoKey = false, ev.Doc
				monoDetail = fmt.Sprintf("%s: site %s went %d -> %d", ev.Doc, ev.Site, lastBySite[k], ev.TS)
			}
			lastBySite[k] = ev.TS
		}
	}
	r.res.checkk("ts-monotonic", monoKey, monoOK, "%s", orf(monoDetail, "%d grants unique, %d editing sites in order", grants, len(lastBySite)))

	// Invariant: feed staleness bound (gateway plans). Every follower
	// monitor must reach the final timestamp, and no observed
	// commit-to-delivery gap may exceed the bound.
	if plan.Gateways > 0 {
		staleOK, staleDetail, staleKey := true, "", ""
		for d := range reports {
			doc := reports[d].Doc
			for _, m := range r.monitors[doc] {
				for {
					if _, ts := m.Read(); ts >= reports[d].FinalTS {
						break
					}
					if past(workloadEnd + 2*budget) {
						staleOK, staleKey = false, doc
						staleDetail = fmt.Sprintf("%s: follower stuck at %d of %d", doc, m.TS(), reports[d].FinalTS)
						break
					}
					_ = r.clk.Sleep(r.ctx, ms(plan.SampleMS))
				}
				if !staleOK {
					break
				}
			}
			r.mu.Lock()
			reports[d].StaleMax = r.staleMax[doc]
			r.mu.Unlock()
			if bound := ms(plan.StalenessBoundMS); reports[d].StaleMax > bound {
				staleOK, staleKey = false, doc
				staleDetail = fmt.Sprintf("%s: staleness %s > bound %s", doc, reports[d].StaleMax, bound)
			}
		}
		r.res.checkk("feed-staleness", staleKey, staleOK, "%s", orf(staleDetail, "all feeds within %s", ms(plan.StalenessBoundMS)))
	}

	sort.Slice(reports, func(i, j int) bool { return reports[i].Doc < reports[j].Doc })
	r.res.Docs = reports
}

// orf returns detail when set, else the formatted fallback — the
// pass-side wording of a check whose fail side already happened or not.
func orf(detail, format string, args ...any) string {
	if detail != "" {
		return detail
	}
	return fmt.Sprintf(format, args...)
}

// coldReaders opens fresh replicas of doc on up to n distinct live
// peers, spread over the index range so they hit different ring
// regions.
func (r *runner) coldReaders(doc string, n int) []*core.Replica {
	var hosts []*core.Peer
	for i, p := range r.c.Peers {
		if !r.down[i] && p.Node.Running() {
			hosts = append(hosts, p)
		}
	}
	if len(hosts) == 0 {
		return nil
	}
	if n > len(hosts) {
		n = len(hosts)
	}
	out := make([]*core.Replica, n)
	for k := 0; k < n; k++ {
		out[k] = core.NewReplica(hosts[(k*len(hosts))/n], doc, fmt.Sprintf("reader-%s-%d", doc, k))
	}
	return out
}
