package core_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
)

// refusingMaster is an endpoint that, once armed, answers the next
// last_ts call itself with a NotMaster verdict: what a master that just
// lost the key to a joiner says while the caller's successor list still
// names it.
type refusingMaster struct {
	transport.Endpoint
	armed     atomic.Bool
	refusedTo atomic.Value // transport.Addr
}

func (e *refusingMaster) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	if _, ok := req.(*msg.LastTSReq); ok && e.armed.CompareAndSwap(true, false) {
		e.refusedTo.Store(to)
		return &msg.LastTSResp{NotMaster: true}, nil
	}
	return e.Endpoint.Call(ctx, to, req)
}

// TestGuessedMasterRefusalFallsBackToTheWalk: on a ring its successor
// list spans, a peer sends Master-key RPCs and DHT reads straight to the
// owner the list names, with no Chord lookup. When the named master
// answers NotMaster, the call falls back to one lookup walk and completes.
func TestGuessedMasterRefusalFallsBackToTheWalk(t *testing.T) {
	c := newCluster(t, 5)
	ep := &refusingMaster{Endpoint: c.Net.NewEndpoint("guessing-host")}
	host := c.NewPeerOn(ep)
	if err := host.Join(ctxT(t, c, 10*time.Second), c.Peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitStable(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var key string
	for i := 0; i < 100 && key == ""; i++ {
		if cand := fmt.Sprintf("guess-doc-%d", i); c.MasterOf(uint64(ids.HashTS(cand))) != host {
			key = cand
		}
	}
	master := c.MasterOf(uint64(ids.HashTS(key)))
	if g, ok := host.Node.Owner(ids.HashTS(key)); !ok || g.Addr != string(master.Addr()) {
		t.Fatalf("host's successor list names %v (ok=%v), want the master %s", g, ok, master.Addr())
	}
	ctx := ctxT(t, c, 60*time.Second)
	w := core.NewReplica(c.Peers[0], key, "writer")
	commit := func(line string) {
		t.Helper()
		if err := w.Insert(0, line); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	lookups := func() int64 { n, _ := host.Node.LookupStats(); return n }

	commit("first")
	r := core.NewReplica(host, key, "reader")
	before := lookups()
	if err := r.Pull(ctx); err != nil || r.CommittedTS() != 1 {
		t.Fatalf("pull: ts %d, err %v; want ts 1", r.CommittedTS(), err)
	}
	if n := lookups() - before; n != 0 {
		t.Fatalf("a pull on a spanned ring took %d lookups, want 0", n)
	}

	commit("second")
	ep.armed.Store(true)
	before = lookups()
	if err := r.Pull(ctx); err != nil || r.CommittedTS() != 2 {
		t.Fatalf("pull after a refused guess: ts %d, err %v; want ts 2", r.CommittedTS(), err)
	}
	if to, _ := ep.refusedTo.Load().(transport.Addr); to != master.Addr() {
		t.Fatalf("the refused last_ts went to %q, want the guessed master %s", to, master.Addr())
	}
	if n := lookups() - before; n != 1 {
		t.Fatalf("a refused guess cost %d lookups, want the 1 walk", n)
	}
	if r.Text() != w.Text() {
		t.Fatalf("reader %q, writer %q", r.Text(), w.Text())
	}
}
