package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/msg"
)

// echoHandler responds to PingReq with Ack and to DHTGetReq with a canned
// payload; anything else is an application error.
func echoHandler(ctx context.Context, from Addr, req msg.Message) (msg.Message, error) {
	switch r := req.(type) {
	case *msg.PingReq:
		return &msg.Ack{}, nil
	case *msg.DHTGetReq:
		return &msg.DHTGetResp{Found: true, Value: []byte(r.ID.String())}, nil
	default:
		return nil, fmt.Errorf("unsupported %T", req)
	}
}

func TestSimnetRoundTrip(t *testing.T) {
	net := NewSimnet()
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	resp, err := a.Call(context.Background(), b.Addr(), &msg.PingReq{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if _, ok := resp.(*msg.Ack); !ok {
		t.Fatalf("want Ack, got %T", resp)
	}
}

func TestSimnetRemoteError(t *testing.T) {
	net := NewSimnet()
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	_, err := a.Call(context.Background(), b.Addr(), &msg.NotifyReq{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if IsUnavailable(err) {
		t.Fatalf("application error must not read as unavailable")
	}
}

func TestSimnetUnknownTarget(t *testing.T) {
	net := NewSimnet()
	a := net.NewEndpoint("a")
	_, err := a.Call(context.Background(), "ghost", &msg.PingReq{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	if !IsUnavailable(err) {
		t.Fatalf("unreachable must read as unavailable")
	}
}

func TestSimnetCrashAndRestart(t *testing.T) {
	net := NewSimnet()
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	net.Crash(b.Addr())
	if _, err := a.Call(context.Background(), b.Addr(), &msg.PingReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("crashed peer should be unreachable, got %v", err)
	}
	// A crashed peer cannot call out either.
	net.Crash(a.Addr())
	net.Restart(b.Addr())
	if _, err := a.Call(context.Background(), b.Addr(), &msg.PingReq{}); err == nil {
		t.Fatalf("crashed caller should fail")
	}
	net.Restart(a.Addr())
	if _, err := a.Call(context.Background(), b.Addr(), &msg.PingReq{}); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

func TestSimnetPartitionAndHeal(t *testing.T) {
	net := NewSimnet()
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	c := net.NewEndpoint("c")
	for _, ep := range []Endpoint{a, b, c} {
		ep.SetHandler(echoHandler)
	}
	net.Partition([]Addr{a.Addr(), b.Addr()}, []Addr{c.Addr()})

	if _, err := a.Call(context.Background(), b.Addr(), &msg.PingReq{}); err != nil {
		t.Fatalf("same-side call failed: %v", err)
	}
	if _, err := a.Call(context.Background(), c.Addr(), &msg.PingReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-partition call should fail, got %v", err)
	}
	net.Heal()
	if _, err := a.Call(context.Background(), c.Addr(), &msg.PingReq{}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestSimnetLatencyApplied(t *testing.T) {
	net := NewSimnet(WithLatency(ConstantLatency(5 * time.Millisecond)))
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	start := time.Now()
	if _, err := a.Call(context.Background(), b.Addr(), &msg.PingReq{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("round trip %v < 2x one-way latency", d)
	}
}

func TestSimnetDeadline(t *testing.T) {
	net := NewSimnet(WithLatency(ConstantLatency(50 * time.Millisecond)))
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := a.Call(ctx, b.Addr(), &msg.PingReq{})
	if err == nil {
		t.Fatalf("expected deadline error")
	}
	if !IsUnavailable(err) {
		t.Fatalf("deadline should read as unavailable, got %v", err)
	}
}

func TestSimnetDropAlwaysTimesOut(t *testing.T) {
	net := NewSimnet(WithDropProb(1.0, 42))
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, b.Addr(), &msg.PingReq{}); !IsUnavailable(err) {
		t.Fatalf("want unavailable on dropped message, got %v", err)
	}
	if sent, dropped := net.Stats(); sent == 0 || dropped == 0 {
		t.Fatalf("stats not recorded: sent=%d dropped=%d", sent, dropped)
	}
}

func TestSimnetConcurrentCalls(t *testing.T) {
	net := NewSimnet()
	srv := net.NewEndpoint("srv")
	srv.SetHandler(echoHandler)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		cl := net.NewEndpoint("")
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := cl.Call(context.Background(), srv.Addr(), &msg.PingReq{}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSimnetClosedEndpoint(t *testing.T) {
	net := NewSimnet()
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := a.Call(context.Background(), b.Addr(), &msg.PingReq{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// And the closed endpoint is gone for others too.
	if _, err := b.Call(context.Background(), a.Addr(), &msg.PingReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable to closed peer, got %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(echoHandler)

	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Call(context.Background(), srv.Addr(), &msg.DHTGetReq{ID: 7})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	got, ok := resp.(*msg.DHTGetResp)
	if !ok || !got.Found {
		t.Fatalf("bad response %#v", resp)
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(echoHandler)
	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.Call(context.Background(), srv.Addr(), &msg.NotifyReq{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

func TestTCPConcurrentCallsShareConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(echoHandler)
	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := cl.Call(context.Background(), srv.Addr(), &msg.PingReq{}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cl.mu.RLock()
	nconns := len(cl.conns)
	cl.mu.RUnlock()
	if nconns != 1 {
		t.Fatalf("expected 1 pooled connection, have %d", nconns)
	}
	// Every first call dialed; the losers closed theirs, so the server
	// is left with one inbound connection once it has seen them go.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		srv.mu.RLock()
		inbound := len(srv.inbound)
		srv.mu.RUnlock()
		if inbound == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d inbound connections, want 1", inbound)
		}
	}
}

type unwired struct{}

func (unwired) Kind() string { return "test.unwired" }

// TestTCPUnencodableResponseIsRemoteError: a handler answer the codec
// cannot carry comes back as an error at once, not as a timeout.
func TestTCPUnencodableResponseIsRemoteError(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(func(ctx context.Context, from Addr, req msg.Message) (msg.Message, error) {
		return unwired{}, nil
	})
	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = cl.Call(ctx, srv.Addr(), &msg.PingReq{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want a RemoteError within 100 ms, got %v", err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = cl.Call(ctx, "127.0.0.1:1", &msg.PingReq{})
	if !IsUnavailable(err) {
		t.Fatalf("want unavailable, got %v", err)
	}
}

func TestTCPServerCrashFailsPending(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	srv.SetHandler(func(ctx context.Context, from Addr, req msg.Message) (msg.Message, error) {
		<-block
		return &msg.Ack{}, nil
	})
	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	done := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), srv.Addr(), &msg.PingReq{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	close(block)
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("expected failure after server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("pending call did not fail after server close")
	}
}

func TestTCPAllMessageTypesRoundTrip(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(func(ctx context.Context, from Addr, req msg.Message) (msg.Message, error) {
		return req, nil // echo back the exact message
	})
	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, m := range msg.All() {
		resp, err := cl.Call(context.Background(), srv.Addr(), m)
		if err != nil {
			t.Fatalf("round trip %T: %v", m, err)
		}
		if resp.Kind() != m.Kind() {
			t.Fatalf("round trip %T changed kind to %s", m, resp.Kind())
		}
	}
}

func TestLatencyModels(t *testing.T) {
	ln := NewLogNormalLatency(2*time.Millisecond, 0.5, 7)
	var over int
	for i := 0; i < 1000; i++ {
		d := ln.Delay("a", "b")
		if d < 0 {
			t.Fatalf("negative delay")
		}
		if d > 2*time.Millisecond {
			over++
		}
	}
	if over == 0 || over == 1000 {
		t.Fatalf("lognormal not spreading around the median: %d/1000 above", over)
	}
	if ConstantLatency(0).Delay("a", "b") != 0 {
		t.Fatalf("constant zero latency")
	}
}

func TestTCPReconnectAfterServerRestart(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(echoHandler)
	cl, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Call(context.Background(), srv.Addr(), &msg.PingReq{}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Calls fail while the server is down.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	if _, err := cl.Call(ctx, addr, &msg.PingReq{}); err == nil {
		t.Fatalf("call to closed server succeeded")
	}
	cancel()
	// Restart on the same address; the pool must re-dial transparently.
	srv2, err := ListenTCP(string(addr))
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer srv2.Close()
	srv2.SetHandler(echoHandler)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cl.Call(context.Background(), addr, &msg.PingReq{})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
