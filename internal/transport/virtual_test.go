package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2pltr/internal/msg"
	"p2pltr/internal/vclock"
)

// TestSimnetVirtualLatency runs a round trip on a virtual clock: the
// simulated latency must be paid in virtual time (exactly one round trip
// of it) and essentially no wall time.
func TestSimnetVirtualLatency(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSimnet(WithClock(clk), WithLatency(ConstantLatency(40*time.Millisecond)))
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	clk.Register()
	defer clk.Unregister()
	start := clk.Now()
	wall := time.Now()
	resp, err := a.Call(context.Background(), "b", &msg.PingReq{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*msg.Ack); !ok {
		t.Fatalf("resp = %T", resp)
	}
	if got := clk.Since(start); got != 80*time.Millisecond {
		t.Fatalf("round trip took %v of virtual time, want exactly 80ms", got)
	}
	if spent := time.Since(wall); spent > 5*time.Second {
		t.Fatalf("virtual round trip took %v of wall time", spent)
	}
}

// TestSimnetVirtualDropTimesOutAtDeadline: a dropped message strands its
// caller until the context's virtual deadline, not a real-time one.
func TestSimnetVirtualDropTimesOutAtDeadline(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSimnet(WithClock(clk), WithDropProb(1.0, 42))
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.SetHandler(echoHandler)

	clk.Register()
	defer clk.Unregister()
	ctx, cancel := clk.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := clk.Now()
	_, err := a.Call(ctx, "b", &msg.PingReq{})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := clk.Since(start); got != 30*time.Second {
		t.Fatalf("drop surfaced after %v of virtual time, want the 30s deadline", got)
	}
	if _, dropped := net.Stats(); dropped == 0 {
		t.Fatal("drop not counted")
	}
}

// TestSimnetShardedEndpoints drives concurrent traffic across many
// endpoints (spanning every shard) on the real clock: registration,
// delivery, crash/restart and close must all stay consistent under
// concurrency. Run with -race this exercises the lock striping.
func TestSimnetShardedEndpoints(t *testing.T) {
	net := NewSimnet()
	const n = 256
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = net.NewEndpoint(fmt.Sprintf("shard-ep-%d", i))
		eps[i].SetHandler(echoHandler)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			to := Addr(fmt.Sprintf("shard-ep-%d", (i+1)%n))
			for k := 0; k < 20; k++ {
				if _, err := eps[i].Call(context.Background(), to, &msg.PingReq{}); err != nil {
					t.Errorf("call %d->%s: %v", i, to, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if sent, _ := net.Stats(); sent != n*20 {
		t.Fatalf("sent = %d, want %d", sent, n*20)
	}
	// Crash/restart and close keep working across shards.
	net.Crash("shard-ep-3")
	if !net.Crashed("shard-ep-3") {
		t.Fatal("crash not recorded")
	}
	if _, err := eps[0].Call(context.Background(), "shard-ep-3", &msg.PingReq{}); err != ErrUnreachable {
		t.Fatalf("call to crashed = %v, want ErrUnreachable", err)
	}
	net.Restart("shard-ep-3")
	if _, err := eps[0].Call(context.Background(), "shard-ep-3", &msg.PingReq{}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if err := eps[5].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Call(context.Background(), "shard-ep-5", &msg.PingReq{}); err != ErrUnreachable {
		t.Fatalf("call to closed = %v, want ErrUnreachable", err)
	}
}

var benchSink msg.Message

// BenchmarkSimnetRoundTrip is one simnet round trip on a virtual clock,
// 1 ms each way, between two endpoints: what a simulated message costs
// the host. It is the benchmark's transport.simnet_call_ns probe.
func BenchmarkSimnetRoundTrip(b *testing.B) {
	clk := vclock.NewVirtual()
	net := NewSimnet(WithClock(clk), WithLatency(ConstantLatency(time.Millisecond)))
	src, dst := net.NewEndpoint("probe-a"), net.NewEndpoint("probe-b")
	dst.SetHandler(func(context.Context, Addr, msg.Message) (msg.Message, error) { return &msg.Ack{}, nil })
	clk.Register()
	defer clk.Unregister()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, err = src.Call(ctx, dst.Addr(), &msg.PingReq{}); err != nil {
			b.Fatal(err)
		}
	}
}
