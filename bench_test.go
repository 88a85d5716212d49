// Package p2pltr's root benchmarks time the paper's scenarios under
// `go test -bench`: each BenchmarkE* corresponds to one harness
// experiment, and custom metrics report the quantities the paper
// demonstrates (latency, behind-rounds, takeover). The per-layer costs —
// lookups, log publish and range fetch, DHT put/get, cold catch-up,
// follower reads — are the benchmark's probes (benchmark/probes.go) and
// are not duplicated here.
package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

func mustCluster(b *testing.B, n int, opts core.Options) *ringtest.Cluster {
	b.Helper()
	c, err := ringtest.NewCluster(n, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	return c
}

// BenchmarkE1TimestampGeneration measures gen_ts validation for fresh
// documents across the ring (Figure 4 / scenario 1).
func BenchmarkE1TimestampGeneration(b *testing.B) {
	c := mustCluster(b, 8, ringtest.FastOptions())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-doc-%d", i)
		r := core.NewReplica(c.Peers[i%len(c.Peers)], key, "bench")
		if err := r.Insert(0, "x"); err != nil {
			b.Fatal(err)
		}
		ts, err := r.Commit(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if ts != 1 {
			b.Fatalf("continuity: first ts = %d", ts)
		}
	}
}

// BenchmarkE2ConcurrentPublish measures commit latency under W concurrent
// updaters of one document (Figure 5 / scenario 2).
func BenchmarkE2ConcurrentPublish(b *testing.B) {
	for _, writers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			c := mustCluster(b, 8, ringtest.FastOptions())
			ctx := context.Background()
			key := "bench-contested"
			replicas := make([]*core.Replica, writers)
			for i := range replicas {
				replicas[i] = core.NewReplica(c.Peers[i%len(c.Peers)], key, fmt.Sprintf("w%d", i))
			}
			b.ResetTimer()
			done := make(chan error, writers)
			per := b.N/writers + 1
			for _, r := range replicas {
				go func(r *core.Replica) {
					for k := 0; k < per; k++ {
						if err := r.Insert(0, "line"); err != nil {
							done <- err
							return
						}
						if _, err := r.Commit(ctx); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(r)
			}
			for i := 0; i < writers; i++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var behind int64
			for _, r := range replicas {
				bh, _ := r.Stats()
				behind += bh
			}
			b.ReportMetric(float64(behind)/float64(b.N), "behind-rounds/op")
		})
	}
}

// BenchmarkE3MasterFailover measures the takeover gap after crashing the
// Master-key (scenario 3).
func BenchmarkE3MasterFailover(b *testing.B) {
	ctx := context.Background()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := ringtest.NewCluster(8, ringtest.FastOptions())
		if err != nil {
			b.Fatal(err)
		}
		key := fmt.Sprintf("failover-%d", i)
		master := c.MasterOf(uint64(ids.HashTS(key)))
		var host *core.Peer
		for _, p := range c.Peers {
			if p != master {
				host = p
				break
			}
		}
		r := core.NewReplica(host, key, "bench")
		if err := r.Insert(0, "pre"); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		c.Crash(master)
		if err := r.Insert(0, "post"); err != nil {
			b.Fatal(err)
		}
		ts, err := r.Commit(ctx)
		if err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		b.StopTimer()
		if ts != 2 {
			b.Fatalf("continuity broken across failover: ts=%d", ts)
		}
		c.Stop()
	}
	if b.N > 0 {
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "takeover-ms/op")
	}
}

// BenchmarkE4MasterJoin measures commit continuity cost while peers join
// (scenario 4).
func BenchmarkE4MasterJoin(b *testing.B) {
	c := mustCluster(b, 4, ringtest.FastOptions())
	ctx := context.Background()
	r := core.NewReplica(c.Peers[0], "join-doc", "bench")
	expected := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Periodically grow the ring mid-workload (capped so large b.N
		// does not build a thousand-peer ring).
		if i%8 == 3 && len(c.Peers) < 16 {
			b.StopTimer()
			if _, err := c.AddPeer(c.Peers[0]); err != nil {
				b.Fatal(err)
			}
			if err := c.WaitStable(time.Minute); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := r.Insert(0, "x"); err != nil {
			b.Fatal(err)
		}
		ts, err := r.Commit(ctx)
		if err != nil {
			b.Fatal(err)
		}
		expected++
		if ts != expected {
			b.Fatalf("continuity across joins: ts=%d want %d", ts, expected)
		}
	}
}

// BenchmarkE8PullUnderReplication measures Pull cost when behind by k
// committed patches (the churn recovery path).
func BenchmarkE8PullUnderReplication(b *testing.B) {
	c := mustCluster(b, 8, ringtest.FastOptions())
	ctx := context.Background()
	writer := core.NewReplica(c.Peers[0], "bench-doc", "writer")
	const backlog = 8
	for i := 0; i < backlog; i++ {
		if err := writer.Insert(0, "x"); err != nil {
			b.Fatal(err)
		}
		if _, err := writer.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.NewReplica(c.Peers[i%len(c.Peers)], "bench-doc", fmt.Sprintf("reader%d", i))
		if err := r.Pull(ctx); err != nil {
			b.Fatal(err)
		}
		if r.CommittedTS() != backlog {
			b.Fatalf("pull stopped at %d", r.CommittedTS())
		}
	}
}

// BenchmarkLogTruncateDeepHistory measures checkpoint-gated log
// reclamation on a deep history. Slots of consecutive timestamps live at
// independent ring positions, so the deletes go out in windows the way
// FetchRange's prefetch does; the simnet adds per-hop latency to make the
// round-trip count visible.
func BenchmarkLogTruncateDeepHistory(b *testing.B) {
	const depth = 64
	c, err := ringtest.NewCluster(8, ringtest.FastOptions(),
		transport.WithLatency(transport.ConstantLatency(200*time.Microsecond)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	ctx := context.Background()
	log := c.Peers[0].Log
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		key := fmt.Sprintf("trunc-doc-%d", i)
		for ts := uint64(1); ts <= depth; ts++ {
			rec := p2plog.Record{Key: key, TS: ts, PatchID: fmt.Sprintf("b#%d", ts), Patch: []byte("payload")}
			if _, err := log.Publish(ctx, rec); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		deleted, err := log.Truncate(ctx, key, depth)
		if err != nil {
			b.Fatal(err)
		}
		if deleted == 0 {
			b.Fatal("nothing deleted")
		}
	}
}
