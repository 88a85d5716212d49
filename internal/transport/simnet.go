package transport

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2pltr/internal/msg"
	"p2pltr/internal/trace"
	"p2pltr/internal/vclock"
)

// Simnet is an in-process simulated network. It delivers messages between
// endpoints registered on it, applying a LatencyModel on each hop and,
// optionally, message loss, pairwise partitions, and peer crashes.
//
// Endpoint state (registration, crashes, partition groups) is sharded
// across lock-striped buckets keyed by the address hash, so a
// ten-thousand-endpoint simulation does not serialize every delivery on
// one RWMutex; only the drop-decision RNG is a single stream, because
// reproducibility requires its draws to be totally ordered.
//
// All waiting — latency on each hop, and the deadline a lost message
// strands its caller on — goes through the configured vclock.Clock. With
// the default wall clock the behavior is the classic one (real sleeps);
// with a vclock.Virtual the same network runs in virtual time, which is
// what the thousand-peer experiments use.
//
// Determinism: given the same seed, the same latency model, and the same
// call interleaving, drop decisions are reproducible. Under a virtual
// clock the interleaving itself is reproducible, so whole experiments
// replay identically.
type Simnet struct {
	latency LatencyModel
	clock   vclock.Clock

	shards [simShards]simShard
	// Partition state lives under one lock of its own (not the shards):
	// installing a partition must be atomic with respect to deliveries —
	// a phased per-shard install would let messages cross a partition
	// that is supposed to be absolute. partActive flags whether any
	// partition is installed, so the common case skips the group lookup.
	partActive atomic.Bool
	partMu     sync.RWMutex
	partition  map[Addr]int

	rngMu    sync.Mutex
	dropProb float64
	rng      *rand.Rand

	seq atomic.Int64

	// Stats
	sent    atomic.Int64
	dropped atomic.Int64
}

// simShards is the number of lock stripes; a power of two so the shard
// index is a mask. 64 keeps contention negligible at 10k endpoints while
// costing nothing at 3.
const simShards = 64

// simShard holds the endpoints whose address hashes onto this stripe.
type simShard struct {
	mu        sync.RWMutex
	endpoints map[Addr]*simEndpoint
	crashed   map[Addr]bool
}

func (n *Simnet) shard(a Addr) *simShard {
	// Inline FNV-1a: hash.Hash32 through the interface would heap-
	// allocate on every delivery-path call.
	h := uint32(2166136261)
	for i := 0; i < len(a); i++ {
		h ^= uint32(a[i])
		h *= 16777619
	}
	return &n.shards[h&(simShards-1)]
}

// SimnetOption configures a Simnet.
type SimnetOption func(*Simnet)

// WithLatency sets the latency model (default: instantaneous).
func WithLatency(m LatencyModel) SimnetOption {
	return func(n *Simnet) { n.latency = m }
}

// WithDropProb makes each one-way message be lost with probability p.
// A lost request or response surfaces to the caller as ErrTimeout.
func WithDropProb(p float64, seed int64) SimnetOption {
	return func(n *Simnet) {
		n.dropProb = p
		n.rng = rand.New(rand.NewSource(seed))
	}
}

// WithClock routes every simulated delay through c instead of the wall
// clock. Pass a *vclock.Virtual to run the network in virtual time.
func WithClock(c vclock.Clock) SimnetOption {
	return func(n *Simnet) { n.clock = vclock.OrSystem(c) }
}

// NewSimnet creates an empty simulated network.
func NewSimnet(opts ...SimnetOption) *Simnet {
	n := &Simnet{
		latency: ConstantLatency(0),
		clock:   vclock.System,
		rng:     rand.New(rand.NewSource(1)),
	}
	for i := range n.shards {
		n.shards[i].endpoints = make(map[Addr]*simEndpoint)
		n.shards[i].crashed = make(map[Addr]bool)
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// NewEndpoint attaches a new endpoint with the given name. Names must be
// unique; an empty name is assigned automatically.
func (n *Simnet) NewEndpoint(name string) Endpoint {
	if name == "" {
		name = "sim-" + strconv.Itoa(int(n.seq.Add(1)))
	}
	ep := &simEndpoint{net: n, addr: Addr(name)}
	s := n.shard(ep.addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.endpoints[ep.addr]; dup {
		panic("simnet: duplicate endpoint name " + name)
	}
	s.endpoints[ep.addr] = ep
	return ep
}

// Crash makes the peer at addr unreachable and unable to call out, without
// running any shutdown logic — it models a fail-stop crash.
func (n *Simnet) Crash(addr Addr) {
	s := n.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed[addr] = true
}

// Restart clears the crashed state of addr (the endpoint keeps its
// handler; P2P-LTR peers additionally rejoin the ring explicitly).
func (n *Simnet) Restart(addr Addr) {
	s := n.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.crashed, addr)
}

// Crashed reports whether addr is currently crashed.
func (n *Simnet) Crashed(addr Addr) bool {
	s := n.shard(addr)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashed[addr]
}

// Partition splits the network into groups: endpoints in different groups
// cannot exchange messages. Endpoints not mentioned join group 0. The
// new partition replaces any previous one atomically.
func (n *Simnet) Partition(groups ...[]Addr) {
	part := make(map[Addr]int)
	for g, addrs := range groups {
		for _, a := range addrs {
			part[a] = g + 1
		}
	}
	n.partMu.Lock()
	n.partition = part
	n.partMu.Unlock()
	n.partActive.Store(true)
}

// Heal removes any active partition.
func (n *Simnet) Heal() {
	n.partActive.Store(false)
	n.partMu.Lock()
	n.partition = nil
	n.partMu.Unlock()
}

// SetDropProb changes the message-loss probability at runtime.
func (n *Simnet) SetDropProb(p float64) {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	n.dropProb = p
}

// Stats returns the number of messages sent and dropped so far.
func (n *Simnet) Stats() (sent, dropped int64) {
	return n.sent.Load(), n.dropped.Load()
}

// reachable reports whether a message may travel from -> to right now.
func (n *Simnet) reachable(from, to Addr) bool {
	if n.Crashed(from) || n.Crashed(to) {
		return false
	}
	if n.partActive.Load() {
		n.partMu.RLock()
		gf, gt := n.partition[from], n.partition[to]
		n.partMu.RUnlock()
		if gf != gt {
			return false
		}
	}
	return true
}

// endpoint returns the registered endpoint at addr, nil if none.
func (n *Simnet) endpoint(addr Addr) *simEndpoint {
	s := n.shard(addr)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.endpoints[addr]
}

// drawDrops decides the fate of a request and its response on the single
// reproducible RNG stream.
func (n *Simnet) drawDrops() (drop, dropBack bool) {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	if n.dropProb <= 0 {
		return false, false
	}
	return n.rng.Float64() < n.dropProb, n.rng.Float64() < n.dropProb
}

// maxClockDropWait bounds how far ahead of the network clock a context
// deadline may lie and still be paid on that clock. It separates
// deadlines expressed in the clock's own timeline (RPC timeouts,
// seconds) from foreign wall-clock deadlines leaking into a virtual-time
// simulation (decades past the virtual epoch): sleeping those out would
// warp the whole timeline.
const maxClockDropWait = 24 * time.Hour

// dropWait strands the caller of a lost message until its deadline, then
// surfaces the loss as a timeout — the semi-synchronous model's failure
// suspicion. The wait runs on the network clock, so a virtual-time
// simulation pays the deadline in virtual time, not real time. A context
// without a clock-expressible deadline is waited out for real, with the
// goroutine detached so a virtual clock keeps advancing for everyone
// else.
func (n *Simnet) dropWait(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok {
		d := dl.Sub(n.clock.Now())
		if d <= 0 {
			return ErrTimeout
		}
		if d <= maxClockDropWait {
			_ = n.clock.Sleep(ctx, d)
			return ErrTimeout
		}
	}
	n.clock.Block(func() { <-ctx.Done() })
	return ErrTimeout
}

// deliver performs one round trip: latency out, handler, latency back.
func (n *Simnet) deliver(ctx context.Context, from, to Addr, req msg.Message) (msg.Message, error) {
	n.sent.Add(1)
	target := n.endpoint(to)
	if target == nil || !n.reachable(from, to) {
		return nil, ErrUnreachable
	}
	drop, dropBack := n.drawDrops()
	if drop || dropBack {
		n.dropped.Add(1)
	}

	if err := n.clock.Sleep(ctx, n.latency.Delay(from, to)); err != nil {
		return nil, err
	}
	if drop {
		// The request was lost: the caller waits out its deadline.
		return nil, n.dropWait(ctx)
	}

	// Re-check reachability at delivery time (crash may have happened
	// while the message was in flight).
	if !n.reachable(from, to) {
		return nil, ErrUnreachable
	}
	h := target.handler()
	if h == nil {
		return nil, ErrNoHandler
	}

	resp, err := h(ctx, from, req)

	if err2 := n.clock.Sleep(ctx, n.latency.Delay(to, from)); err2 != nil {
		return nil, err2
	}
	if dropBack {
		return nil, n.dropWait(ctx)
	}
	// A crash of the callee after the handler ran but before the response
	// arrives back is equivalent to a response loss.
	if !n.reachable(from, to) {
		return nil, ErrUnreachable
	}
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	return resp, nil
}

// simEndpoint implements Endpoint over a Simnet.
type simEndpoint struct {
	net  *Simnet
	addr Addr

	mu     sync.RWMutex
	h      Handler
	closed bool
}

func (e *simEndpoint) Addr() Addr { return e.addr }

func (e *simEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.h = h
}

func (e *simEndpoint) handler() Handler {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil
	}
	return e.h
}

func (e *simEndpoint) Call(ctx context.Context, to Addr, req msg.Message) (msg.Message, error) {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if e.net.Crashed(e.addr) {
		return nil, ErrClosed
	}
	// Trace-context propagation: a caller with a live span hands the
	// serving side its compact SpanContext — and ONLY that. Simnet passes
	// contexts by reference, so the remote carrier shadows the caller's
	// *Span; the handler sees exactly what a wire transport would have
	// delivered (tcpnet carries the same three fields in its envelope).
	if sp := trace.FromContext(ctx); sp != nil {
		if sc := sp.Context(); sc.TraceID != 0 {
			ctx = trace.ContextWithRemote(ctx, sc)
		}
	}
	return e.net.deliver(ctx, e.addr, to, req)
}

func (e *simEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	s := e.net.shard(e.addr)
	s.mu.Lock()
	delete(s.endpoints, e.addr)
	s.mu.Unlock()
	return nil
}
