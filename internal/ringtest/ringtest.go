// Package ringtest is the one builder of simulated P2P-LTR rings for
// tests, examples and the simulation runner.
//
// A ring built here runs on a vclock.Virtual: every peer, the simnet and
// whatever the caller starts through the cluster's clock share one
// deterministic timeline. The calling goroutine is registered as the
// simulation driver, so it advances time by sleeping on Clk (or waiting
// through WaitStable and WaitUntil) and must start any concurrent work
// with Clk.Go or Clk.Gather. Close stops every peer and unregisters the
// driver.
package ringtest

import (
	"context"
	"fmt"
	"sort"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// joinBudget bounds one join or graceful leave, in virtual time.
const joinBudget = 10 * time.Second

// Cluster is a simulated ring of peers on one virtual clock.
type Cluster struct {
	Clk   *vclock.Virtual
	Net   *transport.Simnet
	Peers []*core.Peer
	Opts  core.Options
}

// NewVirtualCluster builds a ring of n peers named sim-00000, sim-00001,
// ... on a virtual-time simnet, seeded directly into the converged state
// (chord.SeedRing). opts.Chord defaults to chord.FastConfig when zero.
// The ring runs on opts.Clock when that is a *vclock.Virtual (a caller
// whose tracer must share the clock creates it first), otherwise on a
// fresh one.
//
// The calling goroutine is registered with the clock as the simulation
// driver before any node goroutine is spawned. Were it not, the
// scheduler could observe quiescence mid-setup and fire the first
// maintenance ticks while later nodes are still starting, an OS-timing
// race that diverges same-seed runs. The caller must Close the cluster
// when done, from the same goroutine.
func NewVirtualCluster(n int, opts core.Options, netOpts ...transport.SimnetOption) *Cluster {
	clk, ok := opts.Clock.(*vclock.Virtual)
	if !ok {
		clk = vclock.NewVirtual()
	}
	clk.Register()
	if opts.Chord.SuccListLen == 0 {
		opts.Chord = chord.FastConfig()
	}
	opts.Chord.Clock = clk
	opts.Clock = clk
	c := &Cluster{
		Clk:  clk,
		Net:  transport.NewSimnet(append([]transport.SimnetOption{transport.WithClock(clk)}, netOpts...)...),
		Opts: opts,
	}
	for i := 0; i < n; i++ {
		c.NewPeer()
	}
	c.Seed()
	return c
}

// NewPeer creates a peer on a fresh endpoint, appends it to Peers and
// returns it without joining it to the ring.
func (c *Cluster) NewPeer() *core.Peer {
	return c.NewPeerOn(c.Net.NewEndpoint(fmt.Sprintf("sim-%05d", len(c.Peers))))
}

// NewPeerOn is NewPeer on a caller-supplied endpoint, typically one of
// c.Net's wrapped to observe or perturb the peer's calls.
func (c *Cluster) NewPeerOn(ep transport.Endpoint) *core.Peer {
	p := core.NewPeer(ep, c.Opts)
	c.Peers = append(c.Peers, p)
	return p
}

// Seed wires every peer in Peers into the converged ring and starts
// them. NewVirtualCluster calls it; a caller that built an empty
// cluster and added its own peers with NewPeerOn calls it once, before
// any peer has joined.
func (c *Cluster) Seed() {
	nodes := make([]*chord.Node, len(c.Peers))
	for i, p := range c.Peers {
		nodes[i] = p.Node
	}
	chord.SeedRing(nodes)
}

// AddPeer joins one new peer through the given bootstrap and returns it.
// A peer that fails to join stays in Peers, stopped.
func (c *Cluster) AddPeer(bootstrap *core.Peer) (*core.Peer, error) {
	p := c.NewPeer()
	ctx, cancel := c.Clk.WithTimeout(context.Background(), joinBudget)
	defer cancel()
	if err := p.Join(ctx, bootstrap.Addr()); err != nil {
		p.Stop()
		return nil, err
	}
	return p, nil
}

// Crash fail-stops the given peer.
func (c *Cluster) Crash(p *core.Peer) {
	c.Net.Crash(p.Addr())
	p.Stop()
}

// Leave makes the peer depart gracefully.
func (c *Cluster) Leave(p *core.Peer) error {
	ctx, cancel := c.Clk.WithTimeout(context.Background(), joinBudget)
	defer cancel()
	return p.Leave(ctx)
}

// Close stops every peer and unregisters the driver.
func (c *Cluster) Close() {
	for _, p := range c.Peers {
		p.Stop()
	}
	c.Clk.Unregister()
}

// Live returns the running peers.
func (c *Cluster) Live() []*core.Peer {
	var out []*core.Peer
	for _, p := range c.Peers {
		if p.Node.Running() {
			out = append(out, p)
		}
	}
	return out
}

// WaitUntil advances virtual time in 50 ms steps until cond holds and
// returns how much virtual time that took, or an error naming what once
// more than budget has passed.
func (c *Cluster) WaitUntil(budget time.Duration, what string, cond func() bool) (time.Duration, error) {
	start := c.Clk.Now()
	for !cond() {
		if c.Clk.Since(start) > budget {
			return c.Clk.Since(start), fmt.Errorf("ringtest: timed out after %v of virtual time waiting for %s", budget, what)
		}
		_ = c.Clk.Sleep(context.Background(), 50*time.Millisecond)
	}
	return c.Clk.Since(start), nil
}

// WaitStable advances virtual time until the ring of live peers is fully
// consistent (successor and predecessor pointers form the sorted cycle).
func (c *Cluster) WaitStable(budget time.Duration) error {
	_, err := c.WaitUntil(budget, fmt.Sprintf("the ring of %d live peers to stabilize", len(c.Live())), c.consistent)
	return err
}

func (c *Cluster) consistent() bool {
	live := c.Live()
	if len(live) == 0 {
		return true
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Node.ID() < live[j].Node.ID() })
	for i, p := range live {
		next := live[(i+1)%len(live)]
		prev := live[(i-1+len(live))%len(live)]
		if p.Node.Successor().ID != next.Node.ID() {
			return false
		}
		if p.Node.Predecessor().ID != prev.Node.ID() {
			return false
		}
	}
	return true
}

// MasterOf returns the live peer currently responsible for the given
// ring position: the first live peer at or after id on the circle.
func (c *Cluster) MasterOf(id uint64) *core.Peer {
	live := c.Live()
	sort.Slice(live, func(i, j int) bool { return live[i].Node.ID() < live[j].Node.ID() })
	for _, p := range live {
		if uint64(p.Node.ID()) >= id {
			return p
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[0]
}
