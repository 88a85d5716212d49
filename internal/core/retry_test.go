package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

// ackLoser is an endpoint that delivers the next granted validation and
// then loses its ack: the master has logged the patch, the caller sees a
// timeout. onLose runs between the two, while nobody knows yet.
type ackLoser struct {
	transport.Endpoint
	armed  atomic.Bool
	onLose func()
}

func (e *ackLoser) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	resp, err := e.Endpoint.Call(ctx, to, req)
	if vr, ok := resp.(*msg.ValidateResp); ok && vr.Status == msg.ValidateOK && e.armed.CompareAndSwap(true, false) {
		if e.onLose != nil {
			e.onLose()
		}
		return nil, transport.ErrTimeout
	}
	return resp, err
}

// flakyFront reads the peer's own log, except that its next FetchRange
// after arm(keep) returns only the first keep records and an error.
type flakyFront struct {
	log   *p2plog.Log
	armed atomic.Bool
	keep  int
}

func (f *flakyFront) arm(keep int) { f.keep = keep; f.armed.Store(true) }

func (f *flakyFront) Lookup(string) (msg.NodeRef, bool) { return msg.NodeRef{}, false }
func (f *flakyFront) Store(string, msg.NodeRef)         {}
func (f *flakyFront) Drop(string)                       {}
func (f *flakyFront) Committed(p2plog.Record)           {}
func (f *flakyFront) FetchRange(ctx context.Context, key string, from, to uint64) ([]p2plog.Record, error) {
	recs, err := f.log.FetchRange(ctx, key, from, to)
	if err == nil && f.armed.CompareAndSwap(true, false) {
		return recs[:min(f.keep, len(recs))], errors.New("injected retrieval failure")
	}
	return recs, err
}

// retryWorld is a ring plus one peer whose acks and retrievals can be
// made to fail, and a document mastered somewhere else.
func retryWorld(t *testing.T) (c *ringtest.Cluster, ep *ackLoser, front *flakyFront, host *core.Peer, key string) {
	t.Helper()
	c = newCluster(t, 5)
	ep = &ackLoser{Endpoint: c.Net.NewEndpoint("flaky-host")}
	host = c.NewPeerOn(ep)
	if err := host.Join(ctxT(t, c, 10*time.Second), c.Peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitStable(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	front = &flakyFront{log: host.Log}
	host.SetFront(front)
	for i := 0; i < 100 && key == ""; i++ {
		if cand := fmt.Sprintf("retry-doc-%d", i); c.MasterOf(uint64(ids.HashTS(cand))) != host {
			key = cand
		}
	}
	if key == "" {
		t.Fatal("no document mastered off the flaky host")
	}
	return c, ep, front, host, key
}

// TestRetriedCommitKeepsPatchID: the master grants and logs bob's patch,
// the ack is lost, and the catch-up that would have recognised the patch
// in the log fails before reaching it, so Commit errors. The retry must
// go out under the same patch ID: it then finds its own record, the line
// lands once and the timestamp returned is the one the log holds.
func TestRetriedCommitKeepsPatchID(t *testing.T) {
	// bob's replica lives on between the two commits; it is never reopened.
	t.Run("reopen=false", func(t *testing.T) {
		c, ep, front, host, key := retryWorld(t)
		ctx := ctxT(t, c, 60*time.Second)
		bob := core.NewReplica(host, key, "bob")
		if err := bob.Insert(0, "bob's line"); err != nil {
			t.Fatal(err)
		}
		ep.armed.Store(true)
		front.arm(0)
		if ts, err := bob.Commit(ctx); err == nil {
			t.Fatalf("commit with a lost ack and a failed retrieval returned ts %d, want an error", ts)
		}
		ts, err := bob.Commit(ctx)
		if err != nil {
			t.Fatalf("retried commit: %v", err)
		}
		reader := core.NewReplica(c.Peers[1], key, "reader")
		if err := reader.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(reader.Text(), "bob's line"); n != 1 || ts != 1 || reader.CommittedTS() != 1 {
			t.Fatalf("retried commit ts %d, line occurs %d times, log at ts %d; want ts 1, once: %q",
				ts, n, reader.CommittedTS(), reader.Text())
		}
		if bob.Text() != reader.Text() || bob.Dirty() {
			t.Fatalf("bob diverged or still dirty: %q vs %q", bob.Text(), reader.Text())
		}
	})
}

// TestSecondSessionOfSiteKeepsItsEdit: a site restarted without any
// local state opens a second replica under the same site name — on
// another peer, or on the same one — and commits before it pulls. Its
// patch must not share an ID with the first session's, or the commit
// round that catches up would take the first session's record for its
// own patch and drop the new edit.
func TestSecondSessionOfSiteKeepsItsEdit(t *testing.T) {
	for _, tc := range []struct {
		name        string
		peer, peer2 int
	}{{"other-peer", 0, 1}, {"same-peer", 0, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 4)
			ctx := ctxT(t, c, 30*time.Second)
			first := core.NewReplica(c.Peers[tc.peer], "doc", "alice")
			first.SetText("first session")
			if _, err := first.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			second := core.NewReplica(c.Peers[tc.peer2], "doc", "alice")
			if err := second.Insert(0, "second session"); err != nil {
				t.Fatal(err)
			}
			if ts, err := second.Commit(ctx); ts != 2 || err != nil {
				t.Fatalf("second session's commit = (%d, %v), want (2, nil)", ts, err)
			}
			reader := core.NewReplica(c.Peers[2], "doc", "reader")
			if err := reader.Pull(ctx); err != nil {
				t.Fatal(err)
			}
			for _, line := range []string{"first session", "second session"} {
				if n := strings.Count(reader.Text(), line); n != 1 {
					t.Fatalf("%q occurs %d times in the log's document %q, want once", line, n, reader.Text())
				}
			}
		})
	}
}

// TestCommitKeepsOwnTimestampWhenRangeFailsLater: bob's patch is granted
// at ts 1 with the ack lost, alice commits ts 2, and bob's catch-up reads
// its own record but fails on alice's. The edit is committed at 1, and
// that is what Commit reports — not an error whose retry degenerates to
// a Pull and hands back alice's timestamp.
func TestCommitKeepsOwnTimestampWhenRangeFailsLater(t *testing.T) {
	c, ep, front, host, key := retryWorld(t)
	ctx := ctxT(t, c, 60*time.Second)
	alice := core.NewReplica(c.Peers[1], key, "alice")
	ep.onLose = func() {
		alice.SetText("alice's line")
		if _, err := alice.Commit(ctx); err != nil {
			t.Errorf("alice: %v", err)
		}
	}
	bob := core.NewReplica(host, key, "bob")
	if err := bob.Insert(0, "bob's line"); err != nil {
		t.Fatal(err)
	}
	ep.armed.Store(true)
	front.arm(1)
	ts, err := bob.Commit(ctx)
	if err != nil || ts != 1 {
		t.Fatalf("commit = (%d, %v), want (1, nil): the log holds bob's patch at 1", ts, err)
	}
	if bob.Dirty() {
		t.Fatal("bob still holds the committed edit as tentative")
	}
	if err := bob.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if err := alice.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if bob.Text() != alice.Text() || bob.CommittedTS() != 2 || strings.Count(bob.Text(), "bob's line") != 1 {
		t.Fatalf("after pull: bob %q (ts %d), alice %q", bob.Text(), bob.CommittedTS(), alice.Text())
	}
}
