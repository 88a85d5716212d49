package chord

import (
	"context"
	"fmt"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
)

// lookupRetries is how many times a lookup restarts from scratch after
// running into a dead hop, giving stabilization time to repair the ring.
const lookupRetries = 4

// FindSuccessor resolves successor(key) iteratively from this node,
// returning the responsible peer and the number of routing hops taken.
// Hops that fail during the lookup are routed around immediately — they
// join a per-lookup avoid set consulted on every retry — but are only
// evicted from the routing state after repeated strikes (see
// lookupStrikeBudget): under sustained loss, single-failure eviction
// makes every dropped lookup message tear a live finger out of the
// table, and the churned table then mis-routes the lookups that follow.
func (n *Node) FindSuccessor(ctx context.Context, key ids.ID) (msg.NodeRef, int, error) {
	var lastErr error
	avoid := make(map[string]bool)
	for attempt := 0; attempt <= lookupRetries; attempt++ {
		if attempt > 0 {
			// Give stabilization a beat to route around the failure.
			if err := n.clock.Sleep(ctx, 2*n.cfg.StabilizeEvery); err != nil {
				return msg.NodeRef{}, 0, err
			}
		}
		ref, hops, err := n.lookupOnce(ctx, key, avoid)
		if err == nil {
			n.cLookups.Add(1)
			n.cLookupHops.Add(int64(hops))
			return ref, hops, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	n.cLookupFailures.Add(1)
	return msg.NodeRef{}, 0, lastErr
}

// lookupOnce walks the ring once: at each step the current node either
// terminates (key ∈ (cur, cur.successor]) or redirects to its closest
// preceding finger. A dead hop aborts the walk (the caller retries,
// steering around the hops accumulated in avoid).
func (n *Node) lookupOnce(ctx context.Context, key ids.ID, avoid map[string]bool) (msg.NodeRef, int, error) {
	// Local first step.
	succ := n.Successor()
	if ids.BetweenRightIncl(key, n.id, succ.ID) {
		return succ, 1, nil
	}
	cur := n.closestPreceding(key, avoid)
	if cur.ID == n.id {
		return succ, 1, nil // best effort on a transiently inconsistent ring
	}
	return n.walk(ctx, cur, key, 1, avoid)
}

// walk iteratively resolves successor(key) from cur, following
// redirects to a final answer. Local lookups enter it after their local
// first step; mergeCycles enters it at a remote node so the walk uses
// that node's view of the ring. An unreachable hop is added to avoid —
// which only steers this lookup's local first steps — and struck
// against (eviction from the routing state only after
// lookupStrikeBudget strikes). A remote redirect naming an avoided hop
// is still contacted: if the hop is genuinely dead the repeat failure
// is exactly the confirming strike eviction needs, while refusing the
// contact would starve the strike count and leave a dead finger pinned
// in every remote table that names it.
func (n *Node) walk(ctx context.Context, cur msg.NodeRef, key ids.ID, startHops int, avoid map[string]bool) (msg.NodeRef, int, error) {
	for hops := startHops; hops < MaxHops; hops++ {
		resp, err := n.Call(ctx, transport.Addr(cur.Addr), &msg.FindSuccessorReq{Key: key, Hops: hops})
		if err != nil {
			if transport.IsUnavailable(err) {
				n.observeLookupContact(true)
				if avoid != nil {
					avoid[cur.Addr] = true
				}
				if transport.IsTimeout(err) {
					// A missed deadline is suspicion, not proof: loss alone
					// produces it, so eviction waits for the strike budget.
					n.suspectFailureBudget(cur, n.lookupStrikeBudget())
				} else {
					// Affirmative unreachability (connection refused, endpoint
					// gone) is evidence of death, not loss: evict now so
					// every table naming the corpse heals on first contact.
					n.evict(cur)
				}
			}
			return msg.NodeRef{}, hops, fmt.Errorf("%w: hop via %s: %v", ErrLookupFailed, cur.Addr, err)
		}
		n.observeLookupContact(false)
		fs, ok := resp.(*msg.FindSuccessorResp)
		if !ok {
			return msg.NodeRef{}, hops, fmt.Errorf("%w: unexpected %T from %s", ErrLookupFailed, resp, cur.Addr)
		}
		if fs.Final {
			return fs.Node, hops + 1, nil
		}
		if fs.Node.ID == cur.ID || fs.Node.IsZero() {
			return msg.NodeRef{}, hops, fmt.Errorf("%w: no progress at %s", ErrLookupFailed, cur.Addr)
		}
		cur = fs.Node
	}
	return msg.NodeRef{}, MaxHops, fmt.Errorf("%w: hop budget exhausted for %s", ErrLookupFailed, key)
}

// lossEWMAAlpha weights the exponential moving average of lookup-path
// contact failures; 1/32 remembers roughly the last few dozen contacts.
const lossEWMAAlpha = 1.0 / 32

// observeLookupContact feeds the observed-loss estimator with one
// lookup-path contact outcome.
func (n *Node) observeLookupContact(failed bool) {
	x := 0.0
	if failed {
		x = 1.0
	}
	n.lossMu.Lock()
	n.lossEWMA += lossEWMAAlpha * (x - n.lossEWMA)
	n.lossMu.Unlock()
}

// lookupStrikeBudget is the number of strikes that evict a hop failing
// on the lookup path, scaled to the observed loss rate: on a clean
// network a repeat failure (2 strikes) is near-certain death and the
// avoid set already routes around the first, while under heavy loss the
// same two drops are commonplace and eviction needs more evidence. The
// budget tops out at 4 — beyond that, keeping a genuinely dead finger
// costs more lookup retries than the churn it avoids.
func (n *Node) lookupStrikeBudget() int {
	n.lossMu.Lock()
	loss := n.lossEWMA
	n.lossMu.Unlock()
	switch {
	case loss < 0.02:
		return 2
	case loss < 0.10:
		return 3
	default:
		return 4
	}
}

// handleFindSuccessor serves one routing step: it answers Final with the
// successor if key ∈ (self, successor], otherwise it redirects to the
// closest preceding node it knows of.
//
// A node that is neither running nor mid-join never answers with
// authority. A failed Join attempt can leave such a node half-joined
// forever: its successor already adopted it as predecessor at handover
// time, so stale finger and successor records keep routing lookups into
// it, while its own tables are empty or self-pointing — the "final"
// fallbacks below would bottom every such lookup out on the phantom's
// own record (with no predecessor, Owns over-claims the whole ring),
// and a fresh peer's join against that answer fails with "lookup
// answered own stale record" no matter how often it retries. Instead
// the idle node hands out its installed successor as a plain redirect,
// so the walk routes through it and terminates on a live authority.
// Pings and neighbor queries are refused while idle (see handle) so
// suspicion strikes accumulate and the stale record is evicted; state
// RPCs (handover, absorb, services) are still served — the handover may
// already have moved real state here.
func (n *Node) handleFindSuccessor(ctx context.Context, req *msg.FindSuccessorReq) (msg.Message, error) {
	if req.Hops > MaxHops {
		return nil, fmt.Errorf("chord: hop budget exhausted at %s", n.ref)
	}
	if n.idle() {
		succ := n.Successor()
		if succ.IsZero() || succ.ID == n.id {
			return nil, fmt.Errorf("chord: %s: node not running", n.ref)
		}
		return &msg.FindSuccessorResp{Node: succ, Hops: req.Hops + 1, Final: false}, nil
	}
	succ := n.Successor()
	if ids.BetweenRightIncl(req.Key, n.id, succ.ID) {
		return &msg.FindSuccessorResp{Node: succ, Hops: req.Hops + 1, Final: true}, nil
	}
	next := n.closestPreceding(req.Key, nil)
	if next.ID == n.id {
		// We know nothing closer: hand out our successor as a best-effort
		// final answer rather than looping.
		return &msg.FindSuccessorResp{Node: succ, Hops: req.Hops + 1, Final: true}, nil
	}
	return &msg.FindSuccessorResp{Node: next, Hops: req.Hops + 1, Final: false}, nil
}

// closestPreceding scans the finger table (then the successor list) for
// the highest node in (self, key), skipping hops the current lookup has
// already found unreachable (avoid may be nil).
func (n *Node) closestPreceding(key ids.ID, avoid map[string]bool) msg.NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for i := ids.Bits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if !f.IsZero() && f.ID != n.id && !avoid[f.Addr] && ids.Between(f.ID, n.id, key) {
			return f
		}
	}
	var best msg.NodeRef
	for _, s := range n.succs {
		if !s.IsZero() && s.ID != n.id && !avoid[s.Addr] && ids.Between(s.ID, n.id, key) {
			best = s // successor list is ordered; the last match is closest
		}
	}
	if !best.IsZero() {
		return best
	}
	return n.ref
}

// probe performs a cheap liveness check. A success clears any pending
// failure suspicion against the peer.
func (n *Node) probe(ctx context.Context, ref msg.NodeRef) bool {
	if ref.Addr == string(n.ep.Addr()) {
		return true
	}
	resp, err := n.Call(ctx, transport.Addr(ref.Addr), &msg.PingReq{})
	if err != nil {
		return false
	}
	_, ok := resp.(*msg.Ack)
	if ok {
		n.clearSuspicion(ref.Addr)
	}
	return ok
}

// evictAfterFailures is how many failed liveness probes inside the
// recency window confirm a suspicion and evict the peer. Two keeps
// genuine crashes detected within one extra maintenance period while
// making loss-induced false eviction of ring neighbors quadratically
// unlikely.
const evictAfterFailures = 2

// suspicion is one peer's unconfirmed-failure record.
type suspicion struct {
	count int
	last  time.Time
}

// suspectFailure records a failed contact with ref and evicts it once
// the suspicion is confirmed, reporting whether it did.
func (n *Node) suspectFailure(ref msg.NodeRef) bool {
	return n.suspectFailureBudget(ref, evictAfterFailures)
}

// suspectFailureBudget is suspectFailure with an explicit strike budget
// (the lookup path scales its budget to observed loss; the periodic
// probes keep the fixed two-strike rule). A strike whose predecessor is
// older than the recency window starts a fresh count: without aging, a
// stray failure from minutes ago would make the next single missed
// probe evict on what is really a first failure.
func (n *Node) suspectFailureBudget(ref msg.NodeRef, budget int) bool {
	window := 4 * n.cfg.StabilizeEvery
	if p := 4 * n.cfg.CheckPredEvery; p > window {
		window = p
	}
	now := n.clock.Now()
	n.cStrikes.Add(1)
	n.mu.Lock()
	if n.suspects == nil {
		n.suspects = make(map[string]suspicion)
	}
	s := n.suspects[ref.Addr]
	if s.count > 0 && now.Sub(s.last) > window {
		s.count = 0
	}
	s.count++
	s.last = now
	confirmed := s.count >= budget
	if confirmed {
		delete(n.suspects, ref.Addr)
	} else {
		n.suspects[ref.Addr] = s
	}
	strikes := s.count
	n.mu.Unlock()
	if confirmed {
		n.evict(ref)
	} else {
		n.rec.Record(nil, "chord-suspect", ref.Addr, fmt.Sprintf("strikes=%d/%d", strikes, budget))
	}
	return confirmed
}

// clearSuspicion forgets failure suspicion against addr (a contact
// succeeded).
func (n *Node) clearSuspicion(addr string) {
	n.mu.Lock()
	delete(n.suspects, addr)
	n.mu.Unlock()
}

// evict removes a dead node from the local routing state, remembering it
// in the eviction history in case the suspicion was false.
func (n *Node) evict(dead msg.NodeRef) {
	n.evictions.Add(1)
	n.cEvictions.Add(1)
	n.rec.Record(nil, "chord-evict", dead.Addr, "")
	n.evictObsMu.Lock()
	obs := n.evictObs
	n.evictObsMu.Unlock()
	for _, fn := range obs {
		fn(dead)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.fingers {
		if n.fingers[i].Addr == dead.Addr {
			n.fingers[i] = msg.NodeRef{}
		}
	}
	keep := n.succs[:0]
	for _, s := range n.succs {
		if s.Addr != dead.Addr {
			keep = append(keep, s)
		}
	}
	if len(keep) == 0 {
		keep = append(keep, n.ref)
	}
	n.succs = keep
	if n.pred.Addr == dead.Addr {
		n.pred = msg.NodeRef{}
	}
	hist := []msg.NodeRef{dead}
	for _, e := range n.evicted {
		if e.Addr != dead.Addr && len(hist) < 2*n.cfg.SuccListLen {
			hist = append(hist, e)
		}
	}
	n.evicted = hist
}
