package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/trace"
	"p2pltr/internal/vclock"
)

// commitSpansPeers commits `commits` patches from a replica with an open
// commit span each, then returns the best (maximum) number of distinct
// serving peers reached by a single commit's trace ID — i.e. how far one
// trace context actually propagated across RPC hops. The document and
// the replica's peer are chosen so that a commit must reach three peers
// whatever routing costs: the replica's peer is not the Master-key M
// (which serves the validation), and one Log-Peer of ts 1 is neither M
// nor M's successor (which M replicates last-ts to).
func commitSpansPeers(t *testing.T, ctx context.Context, tr *trace.Tracer, peers []*core.Peer, commits int) int {
	t.Helper()
	key, host := spreadDoc(t, peers)
	rep := core.NewReplica(host, key, "alice")
	traces := make([]uint64, 0, commits)
	for i := 0; i < commits; i++ {
		if err := rep.Insert(0, fmt.Sprintf("v%d\n", i)); err != nil {
			t.Fatal(err)
		}
		sp := tr.Start("commit", key)
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

// spreadDoc returns a document and a peer to edit it from, as
// commitSpansPeers needs them, reading ownership off the settled ring.
func spreadDoc(t *testing.T, peers []*core.Peer) (string, *core.Peer) {
	t.Helper()
	owner := func(id ids.ID) *core.Peer {
		for _, p := range peers {
			if p.Node.Owns(id) {
				return p
			}
		}
		return nil
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("traced-doc-%d", i)
		m := owner(ids.HashTS(key))
		if m == nil {
			continue
		}
		for r := 0; r < ids.Replicas; r++ {
			l := owner(ids.LogSlot(key, 1).Pos(r))
			if l == nil || l == m || string(l.Addr()) == m.Node.Successor().Addr {
				continue
			}
			for _, p := range peers {
				if p != m {
					return key, p
				}
			}
		}
	}
	t.Fatal("no document whose first commit reaches three peers")
	return "", nil
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
