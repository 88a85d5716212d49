// Package ringtest provides helpers for building simulated P2P-LTR rings
// in tests, benchmarks and examples.
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

// Cluster is a simulated ring of peers.
type Cluster struct {
	Net   *transport.Simnet
	Peers []*core.Peer
	Opts  core.Options
}

// FastOptions returns peer options tuned for simulation.
func FastOptions() core.Options {
	return core.Options{Chord: chord.FastConfig()}
}

// NewVirtualCluster builds a ring of n peers on a virtual-time simnet,
// seeded directly into the converged state (chord.SeedRing) so no
// wall-clock polling is involved anywhere. The CALLING goroutine is
// registered with the clock as the simulation driver BEFORE any node
// goroutine is spawned — were it not, the scheduler could observe
// quiescence mid-setup and fire the first maintenance ticks while
// later nodes are still starting, an OS-timing race that diverges
// same-seed runs. The caller must clk.Unregister() when done (and must
// not Register again).
func NewVirtualCluster(n int, opts core.Options, netOpts ...transport.SimnetOption) (*Cluster, *vclock.Virtual) {
	clk := vclock.NewVirtual()
	clk.Register()
	if opts.Chord.SuccListLen == 0 {
		opts.Chord = chord.FastConfig()
	}
	opts.Chord.Clock = clk
	opts.Clock = clk
	c := &Cluster{
		Net:  transport.NewSimnet(append([]transport.SimnetOption{transport.WithClock(clk)}, netOpts...)...),
		Opts: opts,
	}
	nodes := make([]*chord.Node, 0, n)
	for i := 0; i < n; i++ {
		p := core.NewPeer(c.Net.NewEndpoint(fmt.Sprintf("peer-%d", i)), opts)
		c.Peers = append(c.Peers, p)
		nodes = append(nodes, p.Node)
	}
	chord.SeedRing(nodes)
	return c, clk
}

// NewCluster builds a ring of n peers on a fresh simnet with the given
// options and waits for it to stabilize.
func NewCluster(n int, opts core.Options, netOpts ...transport.SimnetOption) (*Cluster, error) {
	c := &Cluster{Net: transport.NewSimnet(netOpts...), Opts: opts}
	if err := c.Grow(n); err != nil {
		return nil, err
	}
	return c, nil
}

// Grow adds n peers to the cluster (creating the ring if empty) and waits
// for stabilization.
func (c *Cluster) Grow(n int) error {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer-%d", len(c.Peers))
		p := core.NewPeer(c.Net.NewEndpoint(name), c.Opts)
		if len(c.Peers) == 0 {
			p.Create()
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := p.Join(ctx, c.Peers[0].Addr())
			cancel()
			if err != nil {
				return fmt.Errorf("ringtest: join %s: %w", name, err)
			}
		}
		c.Peers = append(c.Peers, p)
	}
	return c.WaitStable(15 * time.Second)
}

// AddPeer joins one new peer through the given bootstrap and returns it.
func (c *Cluster) AddPeer(bootstrap *core.Peer) (*core.Peer, error) {
	name := fmt.Sprintf("peer-%d", len(c.Peers))
	p := core.NewPeer(c.Net.NewEndpoint(name), c.Opts)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Join(ctx, bootstrap.Addr()); err != nil {
		return nil, err
	}
	c.Peers = append(c.Peers, p)
	return p, nil
}

// Crash fail-stops the given peer.
func (c *Cluster) Crash(p *core.Peer) {
	c.Net.Crash(p.Addr())
	p.Stop()
}

// Leave makes the peer depart gracefully.
func (c *Cluster) Leave(p *core.Peer) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return p.Leave(ctx)
}

// Stop shuts down every peer.
func (c *Cluster) Stop() {
	for _, p := range c.Peers {
		p.Stop()
	}
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

// WaitStable blocks until the ring of live peers is fully consistent
// (successor and predecessor pointers form the sorted cycle).
func (c *Cluster) WaitStable(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.consistent() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ringtest: ring did not stabilize within %v (%d live peers)", timeout, len(c.Live()))
		}
		time.Sleep(5 * time.Millisecond)
	}
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

// MasterOf returns the live peer currently responsible for ring position
// of the given ID-producing function result.
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
