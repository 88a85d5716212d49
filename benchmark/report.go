package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metricValue is one metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it to a file, for compare.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seeds     int                    `json:"seeds"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Anomalies []string               `json:"anomalies,omitempty"`
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gatedValues computes the end-to-end metrics from a run's pooled seeds.
func gatedValues(o *seedOut) map[string]float64 {
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	rss := o.rssMB
	if rss == 0 {
		rss = peakRSSMB()
	}
	v := map[string]float64{
		"commit_p50_ms":       o.commit.percentile(0.5),
		"commit_p99_ms":       o.commit.percentile(0.99),
		"staleness_p50_ms":    o.staleness.percentile(0.5),
		"catchup_p50_ms":      o.catchup.percentile(0.5),
		"goodput_lines_per_s": div(float64(o.lines), o.span.Seconds()),
		"cpu_ms_per_commit":   div(ms(o.measuredCPU), float64(o.acks)),
		"peak_rss_mb":         rss,
		"setup_s":             median(setups),
	}
	for name, reads := range o.stretch {
		v[name] = median(reads)
	}
	return v
}

// layerValues computes the per-layer metrics. untraced is the same seeds
// run again without tracing, for the overhead; spans is the number of
// spans the benchmark recorded.
func layerValues(o, untraced *seedOut, seeds, spans int) map[string]float64 {
	n := func(name string) float64 { return o.counts[name] }
	acks := float64(o.acks)
	workloadVS := div(n("workload_ns"), float64(time.Second))    // the window workload_msgs was counted over
	bgRate := div(n("bg_msgs"), n("peers")*idleWarmup.Seconds()) // per peer per virtual second
	v := map[string]float64{
		"vclock.goroutines":                 n("goroutines"),
		"transport.msgs_per_commit":         div(n("workload_msgs"), acks),
		"transport.bg_msgs_per_peer_vs":     bgRate,
		"transport.bg_share":                div(bgRate*div(n("peers"), float64(seeds))*workloadVS, n("workload_msgs")),
		"transport.drop_share":              div(n("dropped"), n("msgs")),
		"chord.hops_per_lookup":             div(n("chord_lookup-hops"), n("chord_lookups")),
		"chord.lookups_per_commit":          div(n("chord_lookups"), acks),
		"chord.lookup_fail_share":           div(n("chord_lookup-failures"), n("chord_lookups")),
		"chord.evictions":                   n("chord_evictions"),
		"chord.suspicion_strikes":           n("chord_suspicion-strikes"),
		"dht.retries_per_op":                div(n("dhtc_retries"), n("dhtc_calls")),
		"dht.replica_puts_per_put":          div(n("dht_replica-puts"), n("dht_puts")),
		"dht.rehomes":                       n("dht_rehomes"),
		"dht.promotions":                    n("dht_promotions"),
		"store.bytes_per_peer":              div(n("store_bytes"), n("live_peers")),
		"p2plog.bytes_per_record":           div(n("log_slot_bytes"), n("log_slots")),
		"p2plog.retrieved_per_commit":       div(n("retrieved"), acks),
		"kts.behind_per_grant":              div(n("kts_rejects"), n("kts_grants")),
		"kts.fast_reject_share":             div(n("kts_fast_rejects"), n("kts_rejects")),
		"kts.busy_shed_per_grant":           div(n("kts_busy_rejects"), n("kts_grants")),
		"kts.takeovers":                     n("kts_takeovers"),
		"kts.last_ts_calls_from_followers":  n("kts_last_ts_calls"),
		"checkpoint.bytes_per_snapshot":     div(n("ckpt_slot_bytes"), n("ckpt_slots")),
		"checkpoint.bootstraps":             n("ckpt_bootstraps") + n("gw_follower-bootstraps"),
		"checkpoint.lag_max":                n("ckpt_lag_max"),
		"maintain.passes":                   n("maint_passes"),
		"maintain.fallback_checkpoints":     n("maint_fallback-checkpoints"),
		"maintain.slots_repaired":           n("maint_slots-repaired"),
		"maintain.slots_truncated":          n("maint_slots-truncated"),
		"core.behind_rounds_per_commit":     div(n("behind_rounds"), acks),
		"core.commit_errors_per_commit":     div(n("commit_errors")+n("gw_commit-errors"), acks),
		"core.commit_p99_ms":                o.allCommit.percentile(0.99),
		"gateway.lines_per_commit":          div(n("gw_batched-ops"), n("gw_commits")),
		"gateway.route_hit_share":           div(n("gw_route-hits"), n("gw_route-hits")+n("gw_route-misses")),
		"gateway.busy_deferrals_per_commit": div(n("gw_busy-deferrals"), n("gw_commits")),
		"gateway.feeds":                     n("gw_feeds"),
		"gateway.bystander_commit_p50_ms":   o.bystander.percentile(0.5),
		"trace.spans_per_commit":            div(float64(spans)+n("program_spans"), acks),
		"e2e.converge_p50_ms":               o.converge.percentile(0.5),
		"e2e.staleness_p99_ms":              o.staleness.percentile(0.99),
		"e2e.failover_gap_p50_ms":           o.failover.percentile(0.5),
		"e2e.seed_wall_s":                   div(o.measuredWall.Seconds(), float64(seeds)),
	}
	// The same seeds, traced against untraced, on the host's clock.
	if untraced != nil && untraced.measuredCPU > 0 {
		v["trace.overhead_share"] = float64(o.measuredCPU-untraced.measuredCPU) / float64(untraced.measuredCPU)
	}
	var staged time.Duration
	for _, d := range o.stage {
		staged += d
	}
	for _, st := range commitStages {
		v["core.stage_share."+st] = div(float64(o.stage[st]), float64(staged))
	}
	for name, val := range o.probes {
		v[name] = val
	}
	return v
}

// sampleCounts says how many observations stand behind each percentile.
func sampleCounts(o *seedOut) map[string]int {
	return map[string]int{
		"commit": len(o.commit), "all_commit": len(o.allCommit), "bystander": len(o.bystander),
		"staleness": len(o.staleness), "catchup": len(o.catchup), "converge": len(o.converge),
		"failover": len(o.failover), "setup": len(o.setups),
	}
}

// printTable writes the human-readable report to w (standard error: the
// driver reads only the last line of standard output).
func printTable(w io.Writer, rec record, o *seedOut) {
	fmt.Fprintf(w, "%s  seed %d  %d seed(s)  traced=%v\n", rec.Workload, rec.Seed, rec.Seeds, rec.Traced)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if !rec.Traced {
		// What the workload does not have is left out, not printed as 0.
		for _, u := range []struct {
			name string
			pool samples
			q    float64
		}{
			{"converge_p50_ms", o.converge, 0.5}, {"staleness_p99_ms", o.staleness, 0.99},
			{"failover_gap_p50_ms", o.failover, 0.5}, {"bystander_commit_p50_ms", o.bystander, 0.5},
		} {
			if len(u.pool) > 0 {
				fmt.Fprintf(w, "  %-40s %14.4f ms\n", "(ungated) "+u.name, u.pool.percentile(u.q))
			}
		}
		fmt.Fprintf(w, "  %-40s %14.4f s\n", "(ungated) seed_wall_s", div(o.measuredWall.Seconds(), float64(rec.Seeds)))
	}
	var counts []string
	for name, c := range rec.Samples {
		counts = append(counts, fmt.Sprintf("%s=%d", name, c))
	}
	sort.Strings(counts)
	fmt.Fprintf(w, "  samples: %s\n", strings.Join(counts, " "))
	if !o.commit.supports(0.99) {
		fmt.Fprintf(w, "  note: commit_p99_ms rests on %d samples; fewer than ten lie beyond it\n", len(o.commit))
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, a := range rec.Anomalies {
		fmt.Fprintf(w, "  anomaly: %s\n", a)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
