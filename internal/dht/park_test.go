package dht

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// soloRing is a one-peer ring: the service owns every slot and has no
// successor, so it stores and serves locally and pushes no copies.
type soloRing struct{}

func (soloRing) Ref() msg.NodeRef             { return msg.NodeRef{ID: 1, Addr: "solo"} }
func (soloRing) Successor() msg.NodeRef       { return msg.NodeRef{} }
func (soloRing) SuccessorList() []msg.NodeRef { return nil }
func (soloRing) Predecessor() msg.NodeRef     { return msg.NodeRef{} }
func (soloRing) Owns(ids.ID) bool             { return true }
func (r soloRing) Owner(ids.ID) (msg.NodeRef, bool) {
	return r.Ref(), true
}
func (r soloRing) FindSuccessor(context.Context, ids.ID) (msg.NodeRef, int, error) {
	return r.Ref(), 0, nil
}
func (soloRing) Call(context.Context, transport.Addr, msg.Message) (msg.Message, error) {
	return nil, errors.New("solo ring has no other peer")
}
func (r soloRing) CallWithTimeout(ctx context.Context, to transport.Addr, req msg.Message, _ time.Duration) (msg.Message, error) {
	return r.Call(ctx, to, req)
}

// twice runs a virtual-time scenario two times and requires both runs to
// report the same thing.
func twice(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	var got [2]string
	for i := range got {
		t.Run(fmt.Sprintf("run%d", i+1), func(t *testing.T) { got[i] = scenario(t) })
	}
	if !t.Failed() && got[0] != got[1] {
		t.Fatalf("same scenario, different results:\n%s\n%s", got[0], got[1])
	}
}

// TestParkedGet: a get with Wait parks on an empty slot and returns at
// the instant a put or a re-home fills it, parked reads waking in arrival
// order; with nothing stored it returns empty after Wait; on a filled
// slot it does not park; and no waiter outlives its read.
func TestParkedGet(t *testing.T) {
	twice(t, func(t *testing.T) string {
		clk := vclock.NewVirtual()
		clk.Register()
		defer clk.Unregister()
		s := NewService(soloRing{}, clk, nil, nil)
		ctx := context.Background()
		start := clk.Now()

		var (
			mu  sync.Mutex
			got []string
		)
		get := func(name string, id ids.ID, wait time.Duration) {
			clk.Go(func() {
				began := clk.Since(start)
				resp, _, _ := s.HandleRPC(ctx, "reader", &msg.DHTGetReq{ID: id, Wait: wait})
				r := resp.(*msg.DHTGetResp)
				mu.Lock()
				got = append(got, fmt.Sprintf("%s %v..%v found=%v %s", name, began, clk.Since(start), r.Found, r.Value))
				mu.Unlock()
			})
		}
		item := func(id ids.ID, v string) msg.StateItem {
			return msg.StateItem{Service: ServiceName, Key: "k", ID: id, Value: []byte(v)}
		}

		get("first", 1, time.Second)
		get("second", 1, time.Second)
		get("idle", 2, 500*time.Millisecond)
		get("rehomed", 3, time.Second)
		_ = clk.Sleep(ctx, 300*time.Millisecond)
		s.HandleRPC(ctx, "writer", &msg.DHTPutReq{ID: 1, Key: "k", Value: []byte("v1"), IfAbsent: true})
		_ = clk.Sleep(ctx, 100*time.Millisecond)
		s.HandleRPC(ctx, "peer", &msg.DHTRehomeReq{Items: []msg.StateItem{item(3, "v3")}})
		_ = clk.Sleep(ctx, time.Second)
		get("filled", 1, time.Second)
		_ = clk.Sleep(ctx, 10*time.Millisecond)

		want := []string{
			"first 0s..300ms found=true v1",
			"second 0s..300ms found=true v1",
			"rehomed 0s..400ms found=true v3",
			"idle 0s..500ms found=false ",
			"filled 1.4s..1.4s found=true v1",
		}
		mu.Lock()
		defer mu.Unlock()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("parked gets returned\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		s.parkMu.Lock()
		defer s.parkMu.Unlock()
		if len(s.parked) != 0 {
			t.Fatalf("%d slots still have parked reads", len(s.parked))
		}
		return strings.Join(got, "\n")
	})
}
