package main

import (
	"context"
	"fmt"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/maintain"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// The injected network delay of every simnet workload: one-way log-normal,
// median 25 ms, sigma 0.5. A virtual-time latency is round trips times
// this, never CPU time.
const (
	latencyMedian = 25 * time.Millisecond
	latencySigma  = 0.5
	// idleWarmup is slept on the seeded ring before the first workload
	// operation; the messages it carries are the stack's background
	// traffic (transport.bg_msgs_per_peer_vs).
	idleWarmup = 10 * time.Second
	// checkpointInterval is the snapshot period, in committed patches, of
	// every workload.
	checkpointInterval = 8
)

// epoch is where vclock.Virtual starts.
var epoch = time.Unix(0, 0).UTC()

// simCluster is one seed's ring on the simulated network.
type simCluster struct {
	clk   *vclock.Virtual
	net   *transport.Simnet
	peers []*core.Peer
	down  []bool
	ctx   context.Context
	// tracer is the program's own commit-pipeline tracer; nil on untraced
	// runs.
	tracer *trace.Tracer
	// bgMsgs is the number of messages the idle warm-up carried.
	bgMsgs int64
}

type simConfig struct {
	peers     int
	admission int
	maintain  bool
	traced    bool
	seed      int64
}

// newSimCluster builds a ring from the stack's public constructors only:
// simnet endpoints, core.NewPeer, chord.SeedRing. The calling goroutine
// is registered with the virtual clock until close.
func newSimCluster(cfg simConfig) *simCluster {
	clk := vclock.NewVirtual()
	c := &simCluster{
		clk: clk,
		net: transport.NewSimnet(
			transport.WithClock(clk),
			transport.WithLatency(transport.NewLogNormalLatency(latencyMedian, latencySigma, cfg.seed+1)),
			transport.WithDropProb(0, cfg.seed+2),
		),
		ctx: context.Background(),
	}
	if cfg.traced {
		c.tracer = trace.New(clk, 1024)
	}
	opts := core.Options{
		Chord: chord.Config{
			SuccListLen:     8,
			StabilizeEvery:  500 * time.Millisecond,
			FixFingersEvery: 500 * time.Millisecond,
			CheckPredEvery:  time.Second,
			CallTimeout:     400 * time.Millisecond,
			Clock:           clk,
		},
		CheckpointInterval: checkpointInterval,
		AdmissionLimit:     cfg.admission,
		ClientBackoff:      time.Second,
		Clock:              clk,
		Tracer:             c.tracer,
	}
	if cfg.maintain {
		opts.Maintain = &maintain.Config{TruncateEvery: 10 * time.Second, KeepIntervals: 1}
	}
	nodes := make([]*chord.Node, cfg.peers)
	c.down = make([]bool, cfg.peers)
	for i := range nodes {
		c.peers = append(c.peers, core.NewPeer(c.net.NewEndpoint(fmt.Sprintf("sim-%05d", i)), opts))
		nodes[i] = c.peers[i].Node
	}
	clk.Register()
	chord.SeedRing(nodes)
	return c
}

// warmUp sleeps the idle period and notes the background traffic.
func (c *simCluster) warmUp() {
	before, _ := c.net.Stats()
	c.sleep(idleWarmup)
	after, _ := c.net.Stats()
	c.bgMsgs = after - before
}

func (c *simCluster) sleep(d time.Duration) { _ = c.clk.Sleep(c.ctx, d) }

// now is the virtual time since the epoch.
func (c *simCluster) now() time.Duration { return c.clk.Since(epoch) }

func (c *simCluster) crash(i int) {
	if c.down[i] {
		return
	}
	c.net.Crash(c.peers[i].Addr())
	c.peers[i].Stop()
	c.down[i] = true
}

func (c *simCluster) live(i int) bool { return !c.down[i] && c.peers[i].Node.Running() }

func (c *simCluster) close() {
	for _, p := range c.peers {
		p.Stop()
	}
	c.clk.Unregister()
}

// tcpCluster is a ring of peers on loopback TCP in this process, on the
// wall clock.
type tcpCluster struct {
	peers  []*core.Peer
	eps    []*transport.TCPEndpoint
	tracer *trace.Tracer
}

// tcpPortBase is the first port of tcp-commit's ring. A peer's place on the
// ring is the hash of its address, and with eight peers the place decides
// much: which peer is a document's Master-key, how large an arc (and share
// of the log) each peer owns. Ports handed out by the system ("127.0.0.1:0")
// gave every run another ring, and commit_p99_ms read 5 ms on some and 8.5 ms
// on others; the ring is an input, so it is fixed. On 20160-20167 the two
// documents have different Master-key peers, neither hosts a client or a
// reader, and no peer owns more than 0.28 of the ring.
const tcpPortBase = 20160

// listenRing listens n endpoints on consecutive loopback ports from
// tcpPortBase; if one is taken it tries the next block of 16, which is
// another ring.
func listenRing(n int) ([]*transport.TCPEndpoint, error) {
	var err error
	for block := 0; block < 64; block++ {
		var eps []*transport.TCPEndpoint
		for i := 0; i < n; i++ {
			var ep *transport.TCPEndpoint
			if ep, err = transport.ListenTCP(fmt.Sprintf("127.0.0.1:%d", tcpPortBase+16*block+i)); err != nil {
				break
			}
			eps = append(eps, ep)
		}
		if err == nil {
			return eps, nil
		}
		for _, ep := range eps {
			_ = ep.Close() // it never served
		}
	}
	return nil, err
}

// newTCPCluster listens n endpoints on loopback, joins them into one ring
// and waits until every peer's successor pointer closes the ring.
func newTCPCluster(n int, traced bool) (*tcpCluster, error) {
	c := &tcpCluster{}
	if traced {
		c.tracer = trace.New(vclock.System, 1024)
	}
	opts := core.Options{
		Chord:              chord.DefaultConfig(), // stabilise every 250 ms
		CheckpointInterval: checkpointInterval,
		Maintain:           &maintain.Config{TruncateEvery: 500 * time.Millisecond, KeepIntervals: 1},
		Tracer:             c.tracer,
	}
	var err error
	if c.eps, err = listenRing(n); err != nil {
		return nil, err
	}
	for i, ep := range c.eps {
		p := core.NewPeer(ep, opts)
		c.peers = append(c.peers, p)
		if i == 0 {
			p.Create()
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		err = p.Join(ctx, c.peers[0].Addr())
		cancel()
		if err != nil {
			c.close()
			return nil, fmt.Errorf("join of peer %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for !c.ringClosed() {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("tcp ring of %d peers did not stabilise in 30 s", n)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return c, nil
}

// ringClosed reports whether following successor pointers from peer 0
// visits every peer once and returns to it.
func (c *tcpCluster) ringClosed() bool {
	byAddr := make(map[string]*core.Peer, len(c.peers))
	for _, p := range c.peers {
		byAddr[string(p.Addr())] = p
	}
	cur := c.peers[0]
	for i := 0; i < len(c.peers); i++ {
		next := byAddr[cur.Node.Successor().Addr]
		if next == nil {
			return false
		}
		if pred := next.Node.Predecessor(); pred.Addr != string(cur.Addr()) {
			return false
		}
		cur = next
		if cur == c.peers[0] {
			return i == len(c.peers)-1
		}
	}
	return false
}

// close stops every peer and closes its sockets; Close waits for the
// endpoint's accept and connection goroutines.
func (c *tcpCluster) close() {
	for _, p := range c.peers {
		p.Stop()
	}
	for _, ep := range c.eps {
		_ = ep.Close() // nothing to do about a socket that fails to close at exit
	}
}
