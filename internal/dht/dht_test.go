package dht_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/dht"
	"p2pltr/internal/ids"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

func newCluster(t *testing.T, n int, netOpts ...transport.SimnetOption) *ringtest.Cluster {
	t.Helper()
	c := ringtest.NewVirtualCluster(n, core.Options{}, netOpts...)
	t.Cleanup(c.Close)
	return c
}

// waitFor advances virtual time until cond holds, failing the test after
// the (virtual) budget.
func waitFor(t *testing.T, c *ringtest.Cluster, budget time.Duration, what string, cond func() bool) {
	t.Helper()
	if _, err := c.WaitUntil(budget, what, cond); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetAcrossRing(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	writer := c.Peers[0].Client
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if err := writer.Put(ctx, key, []byte("v"+key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	// Every peer can read every key.
	for _, p := range c.Peers {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("doc-%d", i)
			v, found, err := p.Client.Get(ctx, key)
			if err != nil || !found {
				t.Fatalf("get %s from %s: found=%v err=%v", key, p, found, err)
			}
			if string(v) != "v"+key {
				t.Fatalf("get %s: %q", key, v)
			}
		}
	}
}

func TestGetMissing(t *testing.T) {
	c := newCluster(t, 3)
	_, found, err := c.Peers[1].Client.Get(context.Background(), "nope")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if found {
		t.Fatalf("missing key found")
	}
}

func TestPutIfAbsentSemantics(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	cl := c.Peers[0].Client
	id := ids.HashString("slot")

	stored, _, err := cl.PutID(ctx, id, "slot", []byte("first"), true)
	if err != nil || !stored {
		t.Fatalf("first put: stored=%v err=%v", stored, err)
	}
	// Idempotent republish.
	stored, _, err = cl.PutID(ctx, id, "slot", []byte("first"), true)
	if err != nil || !stored {
		t.Fatalf("republish: stored=%v err=%v", stored, err)
	}
	// Conflict.
	stored, existing, err := cl.PutID(ctx, id, "slot", []byte("second"), true)
	if err != nil {
		t.Fatalf("conflict put errored: %v", err)
	}
	if stored || string(existing) != "first" {
		t.Fatalf("conflict: stored=%v existing=%q", stored, existing)
	}
}

func TestDataSurvivesJoin(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
		if err := c.Peers[0].Client.Put(ctx, keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	// Join three more peers: ranges split, data must transfer.
	for i := 0; i < 3; i++ {
		if _, err := c.AddPeer(c.Peers[0]); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if err := c.WaitStable(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, found, err := c.Peers[4].Client.Get(ctx, k)
		if err != nil || !found || string(v) != k {
			t.Fatalf("after join: get %s: found=%v v=%q err=%v", k, found, v, err)
		}
	}
}

func TestDataSurvivesLeave(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
		if err := c.Peers[0].Client.Put(ctx, keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	// Two graceful departures push their data to successors.
	if err := c.Leave(c.Peers[2]); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := c.Leave(c.Peers[3]); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, found, err := c.Peers[0].Client.Get(ctx, k)
		if err != nil || !found || string(v) != k {
			t.Fatalf("after leave: get %s: found=%v v=%q err=%v", k, found, v, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	var clients []func()
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		clients = append(clients, func() {
			cl := c.Peers[g%len(c.Peers)].Client
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				if err := cl.Put(ctx, k, []byte(k)); err != nil {
					errCh <- err
					return
				}
				v, found, err := cl.Get(ctx, k)
				if err != nil || !found || string(v) != k {
					errCh <- fmt.Errorf("read own write %s: %v", k, err)
					return
				}
			}
		})
	}
	c.Clk.Gather(clients...)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestClientRetriesThroughCrash(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	key := "crash-key"
	if err := c.Peers[0].Client.Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Crash the owner; the slot's data dies with it (no DHT-level
	// replication for plain data) but writes must reroute to the new
	// owner once stabilization completes.
	owner := c.MasterOf(uint64(ids.HashString(key)))
	c.Crash(owner)
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var cl *dht.Client
	for _, p := range c.Live() {
		cl = p.Client
		break
	}
	cctx, cancel := c.Clk.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cl.Put(cctx, key, []byte("v2")); err != nil {
		t.Fatalf("put after crash: %v", err)
	}
	v, found, err := cl.Get(cctx, key)
	if err != nil || !found || string(v) != "v2" {
		t.Fatalf("get after crash: %q %v %v", v, found, err)
	}
}
