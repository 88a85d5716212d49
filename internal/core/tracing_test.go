package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/trace"
	"p2pltr/internal/vclock"
)

// commitSpansPeers commits `commits` patches from a replica on peers[1]
// with an open commit span each, then returns the best (maximum) number
// of distinct serving peers reached by a single commit's trace ID —
// i.e. how far one trace context actually propagated across RPC hops.
func commitSpansPeers(t *testing.T, ctx context.Context, tr *trace.Tracer, peers []*core.Peer, commits int) int {
	t.Helper()
	rep := core.NewReplica(peers[1], "traced-doc", "alice")
	traces := make([]uint64, 0, commits)
	for i := 0; i < commits; i++ {
		if err := rep.Insert(0, fmt.Sprintf("v%d\n", i)); err != nil {
			t.Fatal(err)
		}
		sp := tr.Start("commit", "traced-doc")
		_, err := rep.Commit(trace.NewContext(ctx, sp))
		sp.EndErr(err)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		traces = append(traces, sp.Context().TraceID)
	}
	// Collect, per commit trace, the set of distinct peers that served a
	// span under that trace ID. The committing side's own span has an
	// empty Peer (it is the origin), so every counted peer is a genuine
	// remote hop.
	best := 0
	for _, tid := range traces {
		served := map[string]bool{}
		for _, d := range tr.Recent(0) {
			if d.Trace == tid && d.Peer != "" {
				served[d.Peer] = true
			}
		}
		if len(served) > best {
			best = len(served)
		}
	}
	return best
}

// TestTracePropagationSimnet is the cross-peer acceptance check of the
// trace-context envelope field over the in-process transport: a single
// commit's segments on different peers (chord routing, KTS validation,
// DHT/log writes) must share one trace ID, observed on >= 3 distinct
// serving peers.
func TestTracePropagationSimnet(t *testing.T) {
	clk := vclock.NewVirtual()
	tr := trace.New(clk, 4096)
	tr.SetOrigin("sim-origin")
	c := newClusterWith(t, 8, core.Options{Clock: clk, Tracer: tr})
	if got := commitSpansPeers(t, ctxT(t, c, 60*time.Second), tr, c.Peers, 4); got < 3 {
		t.Fatalf("best commit trace reached %d distinct serving peers, want >= 3", got)
	}
}
