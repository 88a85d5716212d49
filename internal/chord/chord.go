// Package chord implements the Chord distributed hash table protocol
// (Stoica et al., SIGCOMM 2001) that P2P-LTR runs on.
//
// The paper's prototype used OpenChord but replaced its successor
// management and stabilization protocols with custom ones suited to
// P2P-LTR; this package implements the protocol from scratch with those
// requirements built in:
//
//   - successor lists for failover (the Master-key-Succ and Log-Peer-Succ
//     roles are "my successor on the ring");
//   - periodic stabilization (stabilize / fix-fingers / check-predecessor);
//   - state handover on join (the old responsible transfers keys and
//     timestamps to the new node) and on voluntary leave (the departing
//     node pushes its state to its successor);
//   - a service layer so the DHT store, the KTS timestamp service and the
//     P2P-Log all share one ring.
//
// Lookups are resolved iteratively from the caller using finger tables,
// falling back across successor-list entries when fingers are stale, and
// report the hop count (TestHopCountGrowsLogarithmically checks the
// O(log N) shape).
package chord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/metrics"
	"p2pltr/internal/msg"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// MaxHops bounds lookup routing; a lookup that exceeds it fails rather
// than looping on an inconsistent ring.
const MaxHops = 160

// ErrLookupFailed is returned when a lookup cannot make progress (all
// candidate next hops are dead or the hop budget is exhausted).
var ErrLookupFailed = errors.New("chord: lookup failed")

// Config tunes protocol timing. The zero value is unusable; use
// DefaultConfig (real-time) or FastConfig (simulation/tests).
type Config struct {
	// SuccListLen is the successor-list length r. Tolerates r-1
	// simultaneous successive failures.
	SuccListLen int
	// StabilizeEvery is the period of the stabilize task.
	StabilizeEvery time.Duration
	// FixFingersEvery is the period of the fix-fingers task (one finger
	// per tick, round-robin).
	FixFingersEvery time.Duration
	// CheckPredEvery is the period of the predecessor liveness check.
	CheckPredEvery time.Duration
	// CallTimeout bounds every maintenance RPC; a peer that misses it is
	// suspected of failure (semi-synchronous model).
	CallTimeout time.Duration
	// Clock drives every timer, timeout and maintenance tick. nil means
	// the wall clock (production behavior); a *vclock.Virtual runs the
	// node in simulated time for large-scale deterministic experiments.
	Clock vclock.Clock
}

// DefaultConfig suits real deployments over TCP.
func DefaultConfig() Config {
	return Config{
		SuccListLen:     8,
		StabilizeEvery:  250 * time.Millisecond,
		FixFingersEvery: 100 * time.Millisecond,
		CheckPredEvery:  250 * time.Millisecond,
		CallTimeout:     2 * time.Second,
	}
}

// FastConfig suits simulated networks and tests: aggressive timers so
// rings converge in tens of milliseconds.
func FastConfig() Config {
	return Config{
		SuccListLen:     6,
		StabilizeEvery:  5 * time.Millisecond,
		FixFingersEvery: 2 * time.Millisecond,
		CheckPredEvery:  10 * time.Millisecond,
		CallTimeout:     250 * time.Millisecond,
	}
}

// Service is a subsystem (DHT store, KTS, P2P-Log) mounted on a node.
// Handlers must be safe for concurrent use.
type Service interface {
	// Name identifies the service in transferred state items.
	Name() string
	// HandleRPC processes req if its type belongs to this service,
	// returning handled=false otherwise.
	HandleRPC(ctx context.Context, from transport.Addr, req msg.Message) (resp msg.Message, handled bool, err error)
	// ExportOutside returns (and locally retires) all state whose ring
	// position is NOT in (newPred, self]: it is handed to a joining
	// predecessor that now owns it.
	ExportOutside(newPred, self ids.ID) []msg.StateItem
	// ExportAll returns all state; used when this node leaves voluntarily.
	ExportAll() []msg.StateItem
	// Import installs state items received from a departing or
	// handing-over peer.
	Import(items []msg.StateItem)
}

// Maintainer is implemented by services that need a periodic maintenance
// tick (e.g. the DHT service re-replicating its slots to the current
// successor). The node invokes Maintain at a multiple of the stabilize
// interval while running.
type Maintainer interface {
	Maintain(ctx context.Context)
}

// PacedMaintainer is a Maintainer that may want a period of its own.
// When the node starts, it tells MaintainEvery the shared maintenance
// tick; a positive answer shorter than that tick runs the maintainer on
// its own ticker at that period, and any other answer leaves it on the
// shared tick like any other Maintainer.
type PacedMaintainer interface {
	Maintainer
	MaintainEvery(shared time.Duration) time.Duration
}

// Ring is the view of the node that services depend on; *Node implements
// it. Narrowing the dependency keeps services testable.
type Ring interface {
	Ref() msg.NodeRef
	Successor() msg.NodeRef
	SuccessorList() []msg.NodeRef
	Predecessor() msg.NodeRef
	FindSuccessor(ctx context.Context, key ids.ID) (msg.NodeRef, int, error)
	Owner(key ids.ID) (msg.NodeRef, bool)
	Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error)
	CallWithTimeout(ctx context.Context, to transport.Addr, req msg.Message, d time.Duration) (msg.Message, error)
	Owns(key ids.ID) bool
}

// Node is one Chord peer.
type Node struct {
	cfg   Config
	ep    transport.Endpoint
	id    ids.ID
	ref   msg.NodeRef
	clock vclock.Clock

	mu        sync.RWMutex
	pred      msg.NodeRef
	succs     []msg.NodeRef // succs[0] is the immediate successor; never empty once started
	fingers   [ids.Bits]msg.NodeRef
	nextFix   int
	nextMerge int
	mergeTick int
	// evicted remembers nodes recently dropped from the routing state
	// (most recent first). A node islanded by a loss burst — every peer
	// falsely suspected and evicted — has empty live tables, so this
	// memory is its only way back into the ring (see mergeCycles).
	evicted []msg.NodeRef
	// suspects tracks unconfirmed failures of the periodic liveness
	// probes (stabilize's successor probe, check-predecessor) and of
	// lookup-path hops. One missed deadline only suspects
	// (semi-synchronous model); eviction needs confirming repeat
	// failures within the recency window, because under sustained
	// message loss single-failure eviction makes the ring structure
	// itself flap — every false eviction is a wrong pointer the next
	// rounds must repair. Lookups route around a failed hop immediately
	// through their per-call avoid set, so immediacy no longer requires
	// eviction; their strike budget scales with the observed loss rate
	// (lookupStrikeBudget).
	suspects map[string]suspicion
	started  bool
	stopped  bool
	// joining marks an in-flight Join attempt. A node that is neither
	// running nor joining — the idle half-joined state a failed attempt
	// leaves behind — still serves requests (the handover may already
	// have moved real state onto it), but answers lookups only as
	// non-authoritative redirects so its empty tables can never bottom a
	// walk out on its own stale record (see handleFindSuccessor).
	joining bool

	services []Service

	cancel context.CancelFunc
	wg     sync.WaitGroup
	// loops counts live run-loop goroutines; stop drains it by polling
	// through the clock (see stop for why a plain wg.Wait cannot work
	// under virtual time).
	loops atomic.Int64

	// lossEWMA is the observed lookup-path loss estimate that scales the
	// eviction strike budget (see lookupStrikeBudget).
	lossMu   sync.Mutex
	lossEWMA float64

	// evictObs are the eviction observers (AddEvictObserver): the serving
	// gateway's route cache, and the scale tests' false-eviction count.
	// They can be added after the node started, which layered subsystems
	// like the gateway need. Guarded by their own mutex so
	// registration never contends with routing state.
	evictObsMu sync.Mutex
	evictObs   []func(dead msg.NodeRef)

	// tracer opens a server-side child span around every dispatched RPC
	// that arrived with a propagated trace context; rec records
	// ring-lifecycle events (join, suspect, evict, handover, absorb) into
	// the peer's flight recorder. Either may be nil (a valid no-op).
	tracer *trace.Tracer
	rec    *trace.Recorder

	// counters is the exportable routing metric family; the members below
	// are cached at construction so hot paths skip the family map lookup.
	counters        *metrics.Family
	cLookups        *metrics.Counter
	cLookupHops     *metrics.Counter
	cLookupFailures *metrics.Counter
	cStrikes        *metrics.Counter
	cEvictions      *metrics.Counter
}

// AddEvictObserver registers fn to observe every routing-state eviction
// this node performs. fn runs synchronously on the evicting goroutine:
// it must be fast and must not call back into the node. Observers cannot
// be removed; register long-lived functions only.
func (n *Node) AddEvictObserver(fn func(dead msg.NodeRef)) {
	if fn == nil {
		return
	}
	n.evictObsMu.Lock()
	defer n.evictObsMu.Unlock()
	n.evictObs = append(n.evictObs, fn)
}

// NewNode creates a node bound to ep. The node's ring ID is the hash of
// its transport address, as in consistent hashing; tests may override it
// with NewNodeWithID. tr opens server-side spans around dispatched RPCs
// that carry a propagated trace context and rec receives the ring
// lifecycle events; nil switches either off.
func NewNode(ep transport.Endpoint, cfg Config, tr *trace.Tracer, rec *trace.Recorder) *Node {
	return NewNodeWithID(ep, ids.Hash([]byte(ep.Addr())), cfg, tr, rec)
}

// NewNodeWithID creates a node with an explicit ring identifier.
func NewNodeWithID(ep transport.Endpoint, id ids.ID, cfg Config, tr *trace.Tracer, rec *trace.Recorder) *Node {
	if cfg.SuccListLen <= 0 {
		clk := cfg.Clock
		cfg = DefaultConfig()
		cfg.Clock = clk
	}
	n := &Node{
		cfg:      cfg,
		ep:       ep,
		id:       id,
		ref:      msg.NodeRef{ID: id, Addr: string(ep.Addr())},
		clock:    vclock.OrSystem(cfg.Clock),
		tracer:   tr,
		rec:      rec,
		counters: metrics.NewFamily(),
	}
	n.cLookups = n.counters.Counter("lookups")
	n.cLookupHops = n.counters.Counter("lookup-hops")
	n.cLookupFailures = n.counters.Counter("lookup-failures")
	n.cStrikes = n.counters.Counter("suspicion-strikes")
	n.cEvictions = n.counters.Counter("evictions")
	ep.SetHandler(n.handle)
	return n
}

// Counters returns the node's routing metric family: lookups,
// lookup-hops, lookup-failures, suspicion-strikes, evictions.
func (n *Node) Counters() *metrics.Family { return n.counters }

// Attach mounts a service on the node. Must be called before Create/Join.
func (n *Node) Attach(s Service) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		panic("chord: Attach after start")
	}
	n.services = append(n.services, s)
}

// Ref implements Ring.
func (n *Node) Ref() msg.NodeRef { return n.ref }

// ID returns the node's ring identifier.
func (n *Node) ID() ids.ID { return n.id }

// Addr returns the node's transport address.
func (n *Node) Addr() transport.Addr { return n.ep.Addr() }

// Clock returns the clock the node's timers and timeouts run on.
func (n *Node) Clock() vclock.Clock { return n.clock }

// Successor implements Ring.
func (n *Node) Successor() msg.NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.succs) == 0 {
		return n.ref
	}
	return n.succs[0]
}

// SuccessorList implements Ring; it returns a copy.
func (n *Node) SuccessorList() []msg.NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]msg.NodeRef, len(n.succs))
	copy(out, n.succs)
	return out
}

// Predecessor implements Ring.
func (n *Node) Predecessor() msg.NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pred
}

// idle reports whether the node is neither running nor inside an active
// Join attempt — the half-joined parking state a failed join leaves
// behind. Idle nodes refuse liveness probes and answer lookups without
// authority (see handle and handleFindSuccessor).
func (n *Node) idle() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return !(n.started && !n.stopped) && !n.joining
}

// Owns implements Ring: the node is responsible for key iff
// key ∈ (predecessor, self]. With no known predecessor the node claims the
// key (single-node ring or transient join state; stabilization corrects
// over-claiming, and write-once log slots make double-claiming harmless).
func (n *Node) Owns(key ids.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.pred.IsZero() || n.pred.ID == n.id {
		return true
	}
	return ids.BetweenRightIncl(key, n.pred.ID, n.id)
}

// Owner implements Ring: the owner of key read from local state, with
// no message sent. It answers only when the successor list closes the
// ring — its last entry is the predecessor, so self plus the list is the
// whole membership, as on a ring of at most SuccListLen+1 peers — and
// then names self for key ∈ (predecessor, self], otherwise the list
// entry whose arc (succs[i-1], succs[i]] holds key. On a larger ring, or
// with no known predecessor, ok is false and the caller walks
// (FindSuccessor). Successor lists lag successor pointers after joins,
// so the answer is a guess: a request sent on it must be one the owner
// can refuse (DHT requests with Direct set, Master-key RPCs through
// their NotMaster verdict).
func (n *Node) Owner(key ids.ID) (msg.NodeRef, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.pred.IsZero() || len(n.succs) == 0 || n.succs[len(n.succs)-1].Addr != n.pred.Addr {
		return msg.NodeRef{}, false
	}
	if n.pred.ID == n.id || ids.BetweenRightIncl(key, n.pred.ID, n.id) {
		return n.ref, true
	}
	prev := n.id
	for _, s := range n.succs {
		if ids.BetweenRightIncl(key, prev, s.ID) {
			return s, true
		}
		prev = s.ID
	}
	return msg.NodeRef{}, false
}

// Call implements Ring: a raw RPC bounded by the node's per-call timeout
// (the semi-synchronous model's failure-suspicion bound). The timeout
// composes with any caller deadline — whichever expires first wins — so a
// lost message costs one CallTimeout, not the caller's whole budget.
//
// CallTimeout is sized for single-round-trip exchanges (maintenance
// probes, DHT puts/gets). An RPC whose HANDLER performs nested network
// work — patch validation fans out to the Log-Peers, each publish with
// its own lookup — cannot finish inside it on a realistic-latency
// network; such callers must use CallWithTimeout with an
// application-level budget instead.
func (n *Node) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	return n.CallWithTimeout(ctx, to, req, n.cfg.CallTimeout)
}

// CallWithTimeout implements Ring: Call with an explicit per-call
// deadline for multi-round-trip application RPCs (see Call).
func (n *Node) CallWithTimeout(ctx context.Context, to transport.Addr, req msg.Message, d time.Duration) (msg.Message, error) {
	ctx, cancel := n.clock.WithTimeout(ctx, d)
	defer cancel()
	if to == n.ep.Addr() {
		// Local fast path: avoids transport self-dial and lock reentrancy
		// hazards.
		return n.handle(ctx, n.ep.Addr(), req)
	}
	return n.ep.Call(ctx, to, req)
}

// Create bootstraps a new ring containing only this node.
func (n *Node) Create() {
	n.mu.Lock()
	n.pred = n.ref
	n.succs = []msg.NodeRef{n.ref}
	for i := range n.fingers {
		n.fingers[i] = n.ref
	}
	n.mu.Unlock()
	n.start()
}

// Join adds the node to the ring reachable through bootstrap. It locates
// its successor, installs it, requests the state handover the paper
// requires ("the old responsible transfers its keys and timestamps to the
// new Master-key"), and starts maintenance.
func (n *Node) Join(ctx context.Context, bootstrap transport.Addr) error {
	n.mu.Lock()
	n.joining = true
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.joining = false
		n.mu.Unlock()
	}()
	// A previous Join attempt that failed after installing its successor
	// (a lost handover ack, say) leaves this node half-joined: the
	// successor may already count us as its predecessor and the ring may
	// already route our key range to us, so re-running the lookup can
	// only answer our own record — no number of fresh attempts gets
	// further. Resume that join instead: redo the handover (slots are
	// write-once, so a repeat after a lost ack is idempotent) and start.
	n.mu.Lock()
	resume := !n.started && !n.stopped && len(n.succs) > 0 && n.succs[0].Addr != string(n.ep.Addr())
	var rsucc msg.NodeRef
	if resume {
		rsucc = n.succs[0]
	}
	n.mu.Unlock()
	if resume {
		err := n.finishJoin(ctx, rsucc)
		if err == nil {
			return nil
		}
		if !errors.Is(err, transport.ErrUnreachable) {
			// A lost message, not a dead successor: keep the partial
			// state so the NEXT attempt resumes again. Discarding it
			// here would be fatal — the ring already routes our range
			// to us, so a fresh lookup can only answer our own record.
			return fmt.Errorf("chord: resume join: %w", err)
		}
		// The half-installed successor is provably gone. Discard the
		// partial state and fall through to a fresh lookup against the
		// repaired ring (stabilization evicts the dead node, and our
		// stale record with it).
		n.mu.Lock()
		if !n.started {
			n.pred = msg.NodeRef{}
			n.succs = nil
			for i := range n.fingers {
				n.fingers[i] = msg.NodeRef{}
			}
		}
		n.mu.Unlock()
	}
	// Look up successor(id+1), not successor(id): the two differ only
	// when routing still names this node as responsible for its own ID —
	// stale records of a previous incarnation that crashed and is now
	// rejoining. successor(id) then resolves to the joiner itself, and
	// installing that would island it on a self-loop.
	resp, err := n.Call(ctx, bootstrap, &msg.FindSuccessorReq{Key: ids.Add(n.id, 1)})
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrap, err)
	}
	fs, ok := resp.(*msg.FindSuccessorResp)
	if !ok {
		return fmt.Errorf("chord: join: unexpected response %T", resp)
	}
	succ := fs.Node
	if !fs.Final {
		// The bootstrap redirected to its closest preceding node: keep
		// walking to the actual successor. Joining on the redirect target
		// instead converges eventually (stabilization adopts succ.pred
		// round by round) but costs O(ring distance) stabilize periods —
		// minutes on a thousand-peer ring.
		if succ, _, err = n.walk(ctx, fs.Node, ids.Add(n.id, 1), 1, nil); err != nil {
			return fmt.Errorf("chord: join via %s: %w", bootstrap, err)
		}
	}
	if succ.ID == n.id && succ.Addr != string(n.ep.Addr()) {
		return fmt.Errorf("chord: ID collision with %s", succ.Addr)
	}
	if succ.Addr == string(n.ep.Addr()) {
		// The lookup bottomed out on this node's own stale record: the
		// answerer has not yet routed around our previous incarnation.
		// Retryable — stabilization is already cleaning it up.
		return fmt.Errorf("chord: join via %s: lookup answered own stale record", bootstrap)
	}
	succ, err = n.confirmJoinSuccessor(ctx, succ)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrap, err)
	}

	n.mu.Lock()
	n.pred = msg.NodeRef{}
	n.succs = []msg.NodeRef{succ}
	for i := range n.fingers {
		n.fingers[i] = succ
	}
	n.mu.Unlock()

	return n.finishJoin(ctx, succ)
}

// finishJoin completes a join whose successor is already installed:
// request the key-range handover, start maintenance, and notify. This is
// the resumable tail of Join — everything here may run a second time
// after a lost ack without harm.
func (n *Node) finishJoin(ctx context.Context, succ msg.NodeRef) error {
	// Ask the successor to hand over the key range we now own.
	if succ.Addr != string(n.ep.Addr()) {
		hresp, err := n.Call(ctx, transport.Addr(succ.Addr), &msg.HandoverReq{NewNode: n.ref})
		if err != nil {
			return fmt.Errorf("chord: handover from %s: %w", succ.Addr, err)
		}
		if h, ok := hresp.(*msg.HandoverResp); ok {
			n.importItems(h.Items)
		}
	}

	n.start()
	n.rec.Record(ctx, "chord-join", succ.Addr, "")
	// Proactively notify so the ring links in without waiting a full
	// stabilization round.
	_, _ = n.Call(ctx, transport.Addr(succ.Addr), &msg.NotifyReq{Candidate: n.ref})
	return nil
}

// joinBacktrack bounds how many predecessor steps confirmJoinSuccessor
// walks back from the lookup's answer.
const joinBacktrack = 8

// confirmJoinSuccessor cross-checks a join lookup's answer the way
// stabilize's rule 1 does, eagerly: a ring under message loss serves
// lookups through eroded finger tables, and a "best-effort final" from a
// node that knows nothing closer can name a successor far past the
// joiner's true position. Installing that answer strands the joiner —
// stabilization repairs it only one predecessor step per period. So ask
// the candidate for its predecessor and back up while a closer live node
// exists; a candidate still unconfirmed after joinBacktrack steps was a
// far-wrong answer, and failing lets the caller retry the whole lookup
// against a repaired ring.
func (n *Node) confirmJoinSuccessor(ctx context.Context, succ msg.NodeRef) (msg.NodeRef, error) {
	var confirmed msg.NodeRef // newest candidate that answered a probe
	for i := 0; i < joinBacktrack; i++ {
		nb := n.neighborsOf(ctx, succ)
		if nb == nil {
			if confirmed.IsZero() {
				return succ, fmt.Errorf("chord: successor candidate %s unreachable", succ.Addr)
			}
			return confirmed, nil // the closer node died mid-walk; the confirmed one stands
		}
		if nb.Pred.ID == n.id && nb.Pred.Addr != string(n.ep.Addr()) {
			// The node just before our position holds exactly our ID:
			// an ID collision. The successor(id+1) join key cannot see
			// the collider directly (it resolves past it), but in a
			// settled ring the collider is precisely our would-be
			// successor's predecessor.
			return succ, fmt.Errorf("chord: ID collision with %s", nb.Pred.Addr)
		}
		if nb.Pred.IsZero() || nb.Pred.ID == n.id || !ids.Between(nb.Pred.ID, n.id, succ.ID) {
			return succ, nil // confirmed: nothing between us and it
		}
		// A closer node exists: step back to it. The next iteration's
		// probe doubles as its liveness check.
		confirmed = succ
		succ = nb.Pred
	}
	return succ, fmt.Errorf("chord: lookup answered a far successor (backtrack budget exhausted at %s)", succ.Addr)
}

// Leave departs gracefully: all service state is pushed to the successor,
// maintenance stops, and the endpoint closes so other peers observe the
// departure immediately (the paper's "Master-key peer leaves the system
// normally" scenario).
func (n *Node) Leave(ctx context.Context) error {
	succ := n.firstLiveSuccessor(ctx)
	n.stop()
	defer n.ep.Close()
	if succ.IsZero() || succ.ID == n.id {
		return nil // last node: state dies with the ring
	}
	var items []msg.StateItem
	for _, s := range n.services {
		items = append(items, s.ExportAll()...)
	}
	_, err := n.Call(ctx, transport.Addr(succ.Addr), &msg.AbsorbReq{Leaving: n.ref, Items: items})
	if err != nil {
		return fmt.Errorf("chord: leave: absorb by %s: %w", succ.Addr, err)
	}
	return nil
}

// Stop halts maintenance without any protocol (fail-stop). Used with
// Simnet.Crash to model failures.
func (n *Node) Stop() { n.stop() }

func (n *Node) start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.stopped = false
	ctx, cancel := n.clock.WithCancel(context.Background())
	n.cancel = cancel
	n.mu.Unlock()

	run := func(every time.Duration, f func(context.Context)) {
		// The ticker is armed here, on the starting goroutine: under a
		// virtual clock that fixes the order of same-instant first ticks
		// across nodes, keeping large simulations deterministic.
		t := n.clock.NewTicker(every)
		n.wg.Add(1)
		n.loops.Add(1)
		n.clock.Go(func() {
			defer n.loops.Add(-1)
			defer n.wg.Done()
			defer t.Stop()
			for {
				if t.Wait(ctx) != nil {
					return
				}
				f(ctx)
			}
		})
	}
	run(n.cfg.StabilizeEvery, n.stabilize)
	run(n.cfg.FixFingersEvery, n.fixFingers)
	run(n.cfg.CheckPredEvery, n.checkPredecessor)
	shared := 4 * n.cfg.StabilizeEvery
	var onShared []Maintainer
	for _, s := range n.services {
		if p, ok := s.(PacedMaintainer); ok {
			if every := p.MaintainEvery(shared); every > 0 && every < shared {
				run(every, p.Maintain)
				continue
			}
		}
		if m, ok := s.(Maintainer); ok {
			onShared = append(onShared, m)
		}
	}
	run(shared, func(ctx context.Context) {
		for _, m := range onShared {
			m.Maintain(ctx)
		}
	})
}

func (n *Node) stop() {
	n.mu.Lock()
	if !n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.started = false
	cancel := n.cancel
	n.mu.Unlock()
	cancel()
	// Drain the run loops by polling through the clock, not a plain
	// wg.Wait: a loop may be queued on a vclock.Mutex (handed off at
	// scheduler quiescence) or parked on a deadline, and blocking a
	// registered goroutine outside the clock freezes the virtual
	// timeline those wake-ups depend on. Block(wg.Wait) is no better —
	// its reattach races the last loop's exit on OS timing, which
	// perturbs admission order and breaks determinism. Each Sleep parks
	// this goroutine through the scheduler, so by the time it is
	// re-admitted and reads zero, every exited loop has fully
	// unregistered and the final Wait cannot block.
	for n.loops.Load() > 0 {
		_ = n.clock.Sleep(context.Background(), time.Millisecond)
	}
	// lint:allow-rawgo — provably non-blocking: the clock-driven drain
	// above observed loops==0, so every run loop has already exited.
	n.wg.Wait()
}

// Running reports whether maintenance is active.
func (n *Node) Running() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.started && !n.stopped
}

// LookupStats returns the number of lookups initiated at this node and
// their mean hop count.
func (n *Node) LookupStats() (count int64, meanHops float64) {
	count = n.cLookups.Value()
	if count == 0 {
		return 0, 0
	}
	return count, float64(n.cLookupHops.Value()) / float64(count)
}
