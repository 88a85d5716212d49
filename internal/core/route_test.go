package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
)

// stages runs op under a fresh span on c's clock and returns the span's
// stages and notes in order, notes in brackets and the residual "tail"
// left out: what the Master-key call marks, as the benchmark's stage
// shares read it.
func stages(ctx context.Context, t *testing.T, c *ringtest.Cluster, op func(context.Context) error) string {
	t.Helper()
	tr := trace.New(c.Clk, 1)
	sp := tr.Start("commit", "")
	if err := op(trace.NewContext(ctx, sp)); err != nil {
		t.Fatal(err)
	}
	sp.End()
	var out []string
	for _, ev := range tr.Recent(1)[0].Events {
		switch {
		case ev.Note:
			out = append(out, "["+ev.Stage+"]")
		case ev.Stage != "tail":
			out = append(out, ev.Stage)
		}
	}
	return strings.Join(out, " ")
}

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
	commit := func(line string) string {
		t.Helper()
		if err := w.Insert(0, line); err != nil {
			t.Fatal(err)
		}
		return stages(ctx, t, c, func(ctx context.Context) error { _, err := w.Commit(ctx); return err })
	}
	lookups := func() int64 { n, _ := host.Node.LookupStats(); return n }

	// A named try that hits is one rpc, noted with how it was named.
	if got, want := commit("first"), "rpc [route-guessed] apply checkpoint"; got != want {
		t.Fatalf("a guessed commit marked %q, want %q", got, want)
	}
	r := core.NewReplica(host, key, "reader")
	before := lookups()
	if got, want := stages(ctx, t, c, r.Pull), "rpc [route-guessed]"; got != want || r.CommittedTS() != 1 {
		t.Fatalf("pull: ts %d, marked %q; want ts 1, %q", r.CommittedTS(), got, want)
	}
	if n := lookups() - before; n != 0 {
		t.Fatalf("a pull on a spanned ring took %d lookups, want 0", n)
	}

	commit("second")
	ep.armed.Store(true)
	before = lookups()
	// A named try that misses walks at once, with no backoff and no note.
	if got, want := stages(ctx, t, c, r.Pull), "rpc route rpc"; got != want || r.CommittedTS() != 2 {
		t.Fatalf("pull after a refused guess: ts %d, marked %q; want ts 2, %q", r.CommittedTS(), got, want)
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

// staleMemo is a serving front whose route memo names one peer for every
// document; it logs each Lookup, Drop and Store core makes on it.
type staleMemo struct {
	peer  *core.Peer
	mu    sync.Mutex
	route msg.NodeRef // the zero ref once dropped
	log   []string
}

func (f *staleMemo) Lookup(string) (msg.NodeRef, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, "lookup")
	return f.route, !f.route.IsZero()
}
func (f *staleMemo) Store(_ string, master msg.NodeRef) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.route = master
	f.log = append(f.log, "store "+master.Addr)
}
func (f *staleMemo) Drop(string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.route = msg.NodeRef{}
	f.log = append(f.log, "drop")
}

// ops returns the memo calls logged since the last ops.
func (f *staleMemo) ops() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := strings.Join(f.log, ", ")
	f.log = nil
	return out
}
func (f *staleMemo) FetchRange(ctx context.Context, key string, from, to uint64) ([]p2plog.Record, error) {
	return f.peer.Log.FetchRange(ctx, key, from, to)
}
func (f *staleMemo) Committed(p2plog.Record) {}

// TestStaleMemoGoesStraightToTheWalk: a Master-key call makes one named
// try. When the front's memo names a peer that is not the master, the
// call drops the memo and walks, even where the successor list would
// have named the master (the guess is only tried when no memo is held),
// and the walked-to master replaces the memo, so the next call is one rpc.
func TestStaleMemoGoesStraightToTheWalk(t *testing.T) {
	c := newCluster(t, 5)
	const key = "memo-doc"
	master := c.MasterOf(uint64(ids.HashTS(key)))
	var host, stale *core.Peer
	for _, p := range c.Peers {
		switch {
		case p == master:
		case host == nil:
			host = p
		case stale == nil:
			stale = p
		}
	}
	if g, ok := host.Node.Owner(ids.HashTS(key)); !ok || g.Addr != string(master.Addr()) {
		t.Fatalf("host's successor list names %v (ok=%v), want the master %s", g, ok, master.Addr())
	}
	front := &staleMemo{peer: host, route: stale.Node.Ref()}
	host.SetFront(front)
	lookups := func() int64 { n, _ := host.Node.LookupStats(); return n }

	ctx := ctxT(t, c, 60*time.Second)
	r := core.NewReplica(host, key, "writer")
	commit := func(line string) string {
		t.Helper()
		if err := r.Insert(0, line); err != nil {
			t.Fatal(err)
		}
		return stages(ctx, t, c, func(ctx context.Context) error { _, err := r.Commit(ctx); return err })
	}
	before := lookups()
	if got, want := commit("first"), "rpc route rpc apply checkpoint"; got != want {
		t.Fatalf("a commit through a stale memo marked %q, want %q", got, want)
	}
	if n := lookups() - before; n != 1 {
		t.Fatalf("a stale memo cost %d lookups, want the 1 walk", n)
	}
	if got, want := front.ops(), "lookup, drop, store "+string(master.Addr()); got != want {
		t.Fatalf("memo calls %q, want %q: the stale route dropped, then the walked-to master stored", got, want)
	}

	before = lookups()
	if got, want := commit("second"), "rpc [route-cached] apply checkpoint"; got != want {
		t.Fatalf("a commit through the replaced memo marked %q, want %q", got, want)
	}
	if n := lookups() - before; n != 0 {
		t.Fatalf("a held memo cost %d lookups, want 0", n)
	}
	if got, want := front.ops(), "lookup, store "+string(master.Addr()); got != want {
		t.Fatalf("memo calls %q, want %q", got, want)
	}
}
