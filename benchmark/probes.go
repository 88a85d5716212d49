package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/ot"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/patch"
	"p2pltr/internal/store"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// Probes call one layer's public function repeatedly, each call under a
// span of its own, on the cluster the workload has left running. They
// report medians. A network probe's number is protocol round trips:
// virtual milliseconds under the injected delay on simnet (<layer>_vs),
// wall microseconds on loopback TCP (<layer>_us); a workload has only its
// own clock's, the other's read 0.
const (
	simProbeCalls = 50  // per simnet probe: each call costs the whole ring's background work
	tcpProbeCalls = 200 // per TCP probe
)

// probeCalls is how often a probe calls: the full count, or just enough
// to run the plumbing when quick (smoke runs).
func probeCalls(full int, quick bool) int {
	if quick {
		return 12
	}
	return full
}

func probeLine(i int) string {
	return fmt.Sprintf("probe/%06d/%s", i, strings.Repeat("x", 50)) // 64 bytes
}

func probePatch(i int) patch.Patch {
	return patch.Patch{
		ID: patch.NewPatchID("probe", uint64(i)), Author: "probe", BaseTS: uint64(i),
		Ops: []patch.Op{{Kind: patch.OpInsert, Pos: 0, Line: probeLine(i)}},
	}
}

func probeCheckpoint(key string, ts uint64) checkpoint.Checkpoint {
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = probeLine(i)
	}
	return checkpoint.Checkpoint{Key: key, TS: ts, Lines: lines}
}

// layerCalls are the network-facing calls probed on either transport.
type layerCalls struct {
	peer *core.Peer
	ctx  context.Context
	n    int
}

// layerCall is one probed call, named after its layer and function.
type layerCall struct {
	name string
	call func(i int) error
}

// each returns the probes in the order they must run: the reads follow
// the writes they read back.
func (l layerCalls) each() []layerCall {
	p, ctx := l.peer, l.ctx
	value := []byte(strings.Repeat("v", 256))
	enc, _ := probePatch(0).Encode() // a fixed literal: cannot fail
	return []layerCall{
		{"chord.find_successor", func(i int) error {
			_, _, err := p.Node.FindSuccessor(ctx, ids.HashString(fmt.Sprintf("probe-key-%d", i)))
			return err
		}},
		{"dht.put", func(i int) error { return p.Client.Put(ctx, fmt.Sprintf("probe-kv-%d", i), value) }},
		{"dht.get", func(i int) error {
			_, _, err := p.Client.Get(ctx, fmt.Sprintf("probe-kv-%d", i))
			return err
		}},
		{"p2plog.publish", func(i int) error {
			_, err := p.Log.Publish(ctx, p2plog.Record{Key: "probe-log", TS: uint64(i + 1), PatchID: patch.NewPatchID("probe", uint64(i)), Patch: enc})
			return err
		}},
		{"p2plog.fetch_range8", func(i int) error {
			from := uint64(i % (l.n - 8))
			_, err := p.Log.FetchRange(ctx, "probe-log", from, from+8)
			return err
		}},
		{"checkpoint.publish", func(i int) error {
			_, err := p.Ckpt.Publish(ctx, probeCheckpoint("probe-ckpt", uint64(8*(i+1))))
			return err
		}},
		{"checkpoint.fetch", func(i int) error {
			_, err := p.Ckpt.Fetch(ctx, "probe-ckpt", uint64(8*(i+1)))
			return err
		}},
	}
}

// probeSim probes the layers on a live simnet ring; results are virtual
// milliseconds, stored as <layer>_vs.
func probeSim(c *simCluster, spans *spanLog, out *seedOut, quick bool) {
	calls := probeCalls(simProbeCalls, quick)
	pi := 5
	for !c.live(pi) {
		pi++
	}
	p := c.peers[pi]
	timeVirtual := func(name string, n int, call func(i int) error) {
		var s samples
		for i := 0; i < n; i++ {
			sp := spans.start("probe:"+name, "", nil)
			began := c.now()
			err := call(i)
			sp.end()
			if err != nil {
				out.note("probe %s call %d failed: %v", name, i, err)
				continue
			}
			s.add(c.now() - began)
		}
		out.setProbe(name+"_vs", s.percentile(0.5))
	}
	for _, pr := range (layerCalls{peer: p, ctx: c.ctx, n: calls}).each() {
		timeVirtual(pr.name, calls, pr.call)
	}

	// An uncontended commit over a warm route: a gateway on the probing
	// peer installs the route cache; the first commit warms it.
	gw := gateway.New(p, gateway.Config{BatchTick: serveBatchTick, ProbeIdle: serveProbeIdle})
	defer gw.Close()
	rep := core.NewReplica(p, "probe-validate", "probe")
	commit := func(i int) error {
		if err := rep.Insert(0, probeLine(i)); err != nil {
			return err
		}
		_, err := rep.Commit(c.ctx)
		return err
	}
	if err := commit(-1); err != nil {
		out.note("probe kts.validate warm-up failed: %v", err)
	}
	timeVirtual("kts.validate", calls, commit)

	// A follower read is served from the feed's snapshot in memory: wall
	// nanoseconds, no message.
	fol := gw.Session("probe").Follower("probe-validate")
	for waited := time.Duration(0); fol.TS() == 0 && waited < settleBudget; waited += sampleEvery {
		c.sleep(sampleEvery)
	}
	reads := probeCalls(20000, quick)
	began := time.Now()
	for i := 0; i < reads; i++ {
		fol.Read()
	}
	out.setProbe("gateway.follower_read_ns", float64(time.Since(began).Nanoseconds())/float64(reads))
}

// probeTCP probes the layers over loopback TCP; results are wall
// microseconds, stored as <layer>_us.
func probeTCP(c *tcpCluster, spans *spanLog, out *seedOut, quick bool) {
	calls := probeCalls(tcpProbeCalls, quick)
	p, other := c.peers[1], c.peers[len(c.peers)/2+1]
	ctx := context.Background()
	timeWall := func(name string, call func(i int) error) {
		var s []float64
		for i := 0; i < calls; i++ {
			sp := spans.start("probe:"+name, "", nil)
			began := time.Now()
			err := call(i)
			took := time.Since(began)
			sp.end()
			if err != nil {
				out.note("probe %s call %d failed: %v", name, i, err)
				continue
			}
			s = append(s, float64(took)/float64(time.Microsecond))
		}
		out.setProbe(name+"_us", median(s))
	}
	// One message each way, nothing behind it: the price of the wire.
	cpu := cpuTime()
	timeWall("transport.tcp_call", func(int) error {
		_, err := p.Node.Call(ctx, other.Addr(), &msg.PingReq{})
		return err
	})
	out.setProbe("transport.tcp_cpu_us_per_call", float64(cpuTime()-cpu)/float64(time.Microsecond)/float64(calls))
	value := []byte(strings.Repeat("v", 256))
	timeWall("transport.tcp_put_call", func(int) error {
		_, err := p.Node.Call(ctx, other.Addr(), &msg.DHTPutReq{ID: ids.HashString("probe-direct"), Key: "probe-direct", Value: value})
		return err
	})
	for _, pr := range (layerCalls{peer: p, ctx: ctx, n: calls}).each() {
		timeWall(pr.name, pr.call)
	}
}

// sink keeps the compiler from discarding a probed call's result.
var sink any

// loopTimer times a body in a fixed-count loop and stores wall
// nanoseconds per call.
type loopTimer struct {
	out   *seedOut
	quick bool
}

func (t loopTimer) perCall(name string, n int, body func(i int)) {
	n = probeCalls(n, t.quick)
	began := time.Now()
	for i := 0; i < n; i++ {
		body(i)
	}
	t.out.setProbe(name, float64(time.Since(began).Nanoseconds())/float64(n))
}

// probeCPU times the layers that send nothing.
func probeCPU(out *seedOut, quick bool) {
	perCall := loopTimer{out, quick}.perCall

	st := store.New()
	value := []byte(strings.Repeat("v", 64))
	perCall("store.put_ns", 100000, func(i int) { st.Put(ids.ID(i), "k", value) })
	perCall("store.get_ns", 100000, func(i int) { sink, _ = st.Get(ids.ID(i)) })

	p := probePatch(1)
	enc, _ := p.Encode() // a fixed literal: cannot fail
	out.setProbe("patch.bytes_per_patch", float64(len(enc)))
	perCall("patch.encode_ns", 20000, func(int) { sink, _ = p.Encode() })
	perCall("patch.decode_ns", 20000, func(int) { sink, _ = patch.Decode(enc) })
	a := patch.FromLines(probeCheckpoint("", 0).Lines)
	b := a.Clone()
	_ = b.Apply(patch.Op{Kind: patch.OpInsert, Pos: 32, Line: "changed"}) // position 32 of 64 exists
	perCall("patch.diff64_ns", 2000, func(int) { sink = patch.Diff(a, b) })
	var opsA, opsB []patch.Op
	for i := 0; i < 4; i++ {
		opsA = append(opsA, patch.Op{Kind: patch.OpInsert, Pos: 2 * i, Line: "a"})
		opsB = append(opsB, patch.Op{Kind: patch.OpInsert, Pos: 2*i + 1, Line: "b"})
	}
	perCall("ot.transform_ns", 100000, func(int) { sink, _ = ot.TransformSeq(opsA, "a", opsB, "b") })
}

// probeScheduler times what only the virtual workloads run on: the
// virtual clock's scheduler and a simnet round trip.
func probeScheduler(out *seedOut, quick bool) {
	// 256 goroutines sleeping on one virtual clock, 200k wakes; once on
	// one processor, once on all of them.
	prev := runtime.GOMAXPROCS(1)
	one := schedulerNsPerEvent(quick)
	runtime.GOMAXPROCS(runtime.NumCPU())
	all := schedulerNsPerEvent(quick)
	runtime.GOMAXPROCS(prev)
	out.setProbe("vclock.ns_per_event", one)
	out.setProbe("vclock.gomaxprocs_slowdown", all/one)

	// One simnet round trip, 1 ms each way, between two endpoints: what a
	// simulated message costs the host.
	clk := vclock.NewVirtual()
	net := transport.NewSimnet(transport.WithClock(clk), transport.WithLatency(transport.ConstantLatency(time.Millisecond)))
	src, dst := net.NewEndpoint("probe-a"), net.NewEndpoint("probe-b")
	dst.SetHandler(func(context.Context, transport.Addr, msg.Message) (msg.Message, error) { return &msg.Ack{}, nil })
	clk.Register()
	ctx := context.Background()
	loopTimer{out, quick}.perCall("transport.simnet_call_ns", 50000, func(int) { sink, _ = src.Call(ctx, dst.Addr(), &msg.PingReq{}) })
	clk.Unregister()
}

// schedulerNsPerEvent runs 256 sleepers on a fresh virtual clock until
// 200k wakes have happened and returns wall nanoseconds per wake.
func schedulerNsPerEvent(quick bool) float64 {
	const sleepers = 256
	wakes := sleepers * probeCalls(200000/sleepers, quick)
	clk := vclock.NewVirtual()
	ctx := context.Background()
	clk.Register()
	began := time.Now()
	fs := make([]func(), sleepers)
	for g := range fs {
		g := g
		fs[g] = func() {
			for i := 0; i < wakes/sleepers; i++ {
				_ = clk.Sleep(ctx, time.Duration(1+(g*7+i*13)%10)*time.Millisecond)
			}
		}
	}
	clk.Gather(fs...)
	took := time.Since(began)
	clk.Unregister()
	return float64(took.Nanoseconds()) / float64(wakes)
}
