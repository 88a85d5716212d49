package main

import (
	"encoding/json"
)

// The benchmark's contract with the driver: BENCHMARK.json at the root
// of the repository is printed from these tables (-spec), and the smoke
// test fails if the two ever differ.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type gatedSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures.
const runSeconds = 30

var workloadSpecs = []workloadSpec{
	{"serve-hot", "32 gateway editors on one document: the hot-key convoy puts the work in kts admission, core retry/OT and p2plog.FetchRange"},
	{"serve-spread", "same cluster and offered lines/s, one editor per document: no contention, so a commit is batch wait + route + one validate + p2plog.Publish"},
	{"churn-heal", "256 peers, 1% loss, crash batches, Master-key and boundary-author kills: chord, dht re-homing, kts takeover, maintain; vclock+simnet dominate wall time"},
	{"tcp-commit", "8 peers on loopback TCP, wall clock: the only workload whose messages are encoded onto a wire, so tcpnet and the gob codecs show here"},
}

// Times are milliseconds on the workload's one clock: virtual under the
// injected delay on the three simnet workloads, wall on tcp-commit. No
// number mixes the two.
var gated = []gatedSpec{
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p99_ms", "ms", "lower", 0.25},
	{"staleness_p50_ms", "ms", "lower", 0.25},
	{"catchup_p50_ms", "ms", "lower", 0.25},
	{"goodput_lines_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_commit", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// commitStages are the marks of the program's own commit tracer.
var commitStages = []string{"queue-wait", "retrieve", "rpc", "busy-backoff", "backoff", "route", "apply", "checkpoint", "ack"}

var layers = func() []layerSpec {
	l := []layerSpec{
		{"vclock.ns_per_event", "ns", "lower"},
		{"vclock.gomaxprocs_slowdown", "x", "lower"},
		{"vclock.goroutines", "count", "lower"},
		{"transport.msgs_per_commit", "count", "lower"},
		{"transport.bg_msgs_per_peer_vs", "1/s", "lower"},
		{"transport.bg_share", "share", "lower"},
		{"transport.drop_share", "share", "lower"},
		{"transport.simnet_call_ns", "ns", "lower"},
		{"transport.tcp_call_us", "us", "lower"},
		{"transport.tcp_put_call_us", "us", "lower"},
		{"transport.tcp_cpu_us_per_call", "us", "lower"},
		{"chord.hops_per_lookup", "count", "lower"},
		{"chord.lookups_per_commit", "count", "lower"},
		{"chord.lookup_fail_share", "share", "lower"},
		{"chord.evictions", "count", "lower"},
		{"chord.suspicion_strikes", "count", "lower"},
		{"chord.find_successor_vs", "ms", "lower"},
		{"chord.find_successor_us", "us", "lower"},
		{"dht.put_vs", "ms", "lower"},
		{"dht.get_vs", "ms", "lower"},
		{"dht.put_us", "us", "lower"},
		{"dht.get_us", "us", "lower"},
		{"dht.retries_per_op", "count", "lower"},
		{"dht.replica_puts_per_put", "count", "lower"},
		{"dht.rehomes", "count", "lower"},
		{"dht.promotions", "count", "lower"},
		{"store.put_ns", "ns", "lower"},
		{"store.get_ns", "ns", "lower"},
		{"store.bytes_per_peer", "B", "lower"},
		{"p2plog.publish_vs", "ms", "lower"},
		{"p2plog.fetch_range8_vs", "ms", "lower"},
		{"p2plog.publish_us", "us", "lower"},
		{"p2plog.fetch_range8_us", "us", "lower"},
		{"p2plog.bytes_per_record", "B", "lower"},
		{"p2plog.retrieved_per_commit", "count", "lower"},
		{"kts.behind_per_grant", "count", "lower"},
		{"kts.fast_reject_share", "share", "higher"},
		{"kts.busy_shed_per_grant", "count", "lower"},
		{"kts.takeovers", "count", "lower"},
		{"kts.validate_vs", "ms", "lower"},
		{"kts.last_ts_calls_from_followers", "count", "lower"},
		{"checkpoint.publish_vs", "ms", "lower"},
		{"checkpoint.fetch_vs", "ms", "lower"},
		{"checkpoint.publish_us", "us", "lower"},
		{"checkpoint.fetch_us", "us", "lower"},
		{"checkpoint.bytes_per_snapshot", "B", "lower"},
		{"checkpoint.bootstraps", "count", "higher"},
		{"checkpoint.lag_max", "count", "lower"},
		{"maintain.passes", "count", "lower"},
		{"maintain.fallback_checkpoints", "count", "lower"},
		{"maintain.slots_repaired", "count", "lower"},
		{"maintain.slots_truncated", "count", "higher"},
		{"patch.encode_ns", "ns", "lower"},
		{"patch.decode_ns", "ns", "lower"},
		{"patch.bytes_per_patch", "B", "lower"},
		{"patch.diff64_ns", "ns", "lower"},
		{"ot.transform_ns", "ns", "lower"},
		{"core.behind_rounds_per_commit", "count", "lower"},
		{"core.commit_errors_per_commit", "count", "lower"},
		{"core.commit_p99_ms", "ms", "lower"},
	}
	for _, st := range commitStages {
		l = append(l, layerSpec{"core.stage_share." + st, "share", "lower"})
	}
	return append(l,
		layerSpec{"gateway.lines_per_commit", "count", "higher"},
		layerSpec{"gateway.route_hit_share", "share", "higher"},
		layerSpec{"gateway.busy_deferrals_per_commit", "count", "lower"},
		layerSpec{"gateway.feeds", "count", "lower"},
		layerSpec{"gateway.follower_read_ns", "ns", "lower"},
		layerSpec{"gateway.bystander_commit_p50_ms", "ms", "lower"},
		layerSpec{"trace.overhead_share", "share", "lower"},
		layerSpec{"trace.spans_per_commit", "count", "lower"},
		// End-to-end observations that not every workload can gate on:
		// reported with the layers, never bounded.
		layerSpec{"e2e.converge_p50_ms", "ms", "lower"},
		layerSpec{"e2e.staleness_p99_ms", "ms", "lower"},
		layerSpec{"e2e.failover_gap_p50_ms", "ms", "lower"},
		layerSpec{"e2e.seed_wall_s", "s", "lower"},
	)
}()

// benchmarkJSON is BENCHMARK.json's content.
func benchmarkJSON() []byte {
	b, _ := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []gatedSpec    `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, workloadSpecs, gated, layers}, "", "  ") // plain tables: cannot fail
	return append(b, '\n')
}
