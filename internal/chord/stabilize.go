package chord

import (
	"context"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
)

// stabilize is the core ring-repair task: it verifies the immediate
// successor, adopts a closer one if the successor reports a predecessor
// between us and it, rebuilds the successor list from the successor's
// list, and notifies the successor of our existence.
func (n *Node) stabilize(ctx context.Context) {
	succ, nb, ok := n.liveSuccessorNeighbors(ctx)
	if !ok {
		// The successor missed a deadline but is only suspected, not
		// confirmed dead: skip this round and let the next one decide.
		return
	}
	if succ.IsZero() {
		// Every known successor is dead; fall back to a self-loop and let
		// fix-fingers rediscover the ring (it cannot, if we are truly
		// alone, which is then correct).
		n.mu.Lock()
		n.succs = []msg.NodeRef{n.ref}
		n.mu.Unlock()
		return
	}

	// Rule 1: if succ.pred ∈ (self, succ), it is a closer successor.
	if nb != nil && !nb.Pred.IsZero() && nb.Pred.ID != n.id &&
		ids.Between(nb.Pred.ID, n.id, succ.ID) {
		if cand := nb.Pred; n.probe(ctx, cand) {
			if cnb := n.neighborsOf(ctx, cand); cnb != nil {
				succ, nb = cand, cnb
			}
		}
	}

	// Rebuild the successor list: succ followed by succ's own list.
	list := make([]msg.NodeRef, 0, n.cfg.SuccListLen)
	list = append(list, succ)
	if nb != nil {
		for _, s := range nb.Succs {
			if len(list) >= n.cfg.SuccListLen {
				break
			}
			if s.IsZero() || s.ID == n.id || containsRef(list, s) {
				continue
			}
			list = append(list, s)
		}
	}
	n.mu.Lock()
	n.succs = list
	n.mu.Unlock()

	// Notify succ that we might be its predecessor.
	if succ.ID != n.id {
		_, _ = n.Call(ctx, transport.Addr(succ.Addr), &msg.NotifyReq{Candidate: n.ref})
	}

	n.mergeCycles(ctx)
}

// mergeEvery rate-limits the cross-check: a split can only be created
// by (false) suspicion, never by quiet operation, so a healthy ring
// pays the extra lookup on a fraction of stabilize rounds while an
// islanded node (self-loop — repair cannot wait) checks every round.
const mergeEvery = 4

// mergeCycles repairs ring states plain stabilization cannot: mutual
// false suspicion under message loss can split the ring into disjoint
// cycles that are each internally consistent (a fully evicted node's
// self-loop is the degenerate case), and stabilize/notify traffic then
// stays within each cycle forever. The repair cross-checks the wider
// membership view: it asks a known node outside the immediate successor
// for successor(self+1) and adopts the answer when it lies between self
// and the current successor — a strict improvement, so repeated rounds
// converge the merged ring just like ordinary stabilization.
func (n *Node) mergeCycles(ctx context.Context) {
	succ := n.Successor()
	n.mu.Lock()
	n.mergeTick++
	tick := n.mergeTick
	n.mu.Unlock()
	if succ.ID != n.id && tick%mergeEvery != 0 {
		return
	}
	cand := n.crossCheckCandidate(succ)
	if cand.IsZero() {
		return
	}
	y, _, err := n.walk(ctx, cand, ids.Add(n.id, 1), 0, nil)
	if err != nil || y.IsZero() || y.ID == n.id || y.ID == succ.ID {
		return
	}
	if !ids.Between(y.ID, n.id, succ.ID) && succ.ID != n.id {
		return
	}
	if !n.probe(ctx, y) {
		return
	}
	n.adoptSuccessor(y)
	_, _ = n.Call(ctx, transport.Addr(y.Addr), &msg.NotifyReq{Candidate: n.ref})
}

// crossCheckCandidate rotates through the nodes this one knows beyond
// its immediate successor — predecessor, successor-list tail, fingers —
// returning one to route the next cross-check lookup through.
func (n *Node) crossCheckCandidate(succ msg.NodeRef) msg.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	var cands []msg.NodeRef
	add := func(r msg.NodeRef) {
		if r.IsZero() || r.ID == n.id || r.Addr == succ.Addr || containsRef(cands, r) {
			return
		}
		cands = append(cands, r)
	}
	add(n.pred)
	for _, s := range n.succs {
		add(s)
	}
	for _, f := range n.fingers {
		add(f)
	}
	if len(cands) == 0 {
		// Islanded: the live tables know nobody. Fall back to recently
		// evicted peers — a false suspicion during a loss burst is the
		// usual way a node ends up here, and those peers are still alive.
		for _, e := range n.evicted {
			add(e)
		}
	}
	if len(cands) == 0 {
		return msg.NodeRef{}
	}
	n.nextMerge++
	return cands[n.nextMerge%len(cands)]
}

// adoptSuccessor installs y as the immediate successor if it is still an
// improvement over the current one (the pointer may have moved since the
// caller checked).
func (n *Node) adoptSuccessor(y msg.NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.ref
	if len(n.succs) > 0 && !n.succs[0].IsZero() {
		cur = n.succs[0]
	}
	if y.ID == cur.ID || (cur.ID != n.id && !ids.Between(y.ID, n.id, cur.ID)) {
		return
	}
	list := make([]msg.NodeRef, 0, n.cfg.SuccListLen)
	list = append(list, y)
	for _, s := range n.succs {
		if len(list) >= n.cfg.SuccListLen {
			break
		}
		if s.IsZero() || s.Addr == y.Addr || s.ID == n.id {
			continue
		}
		list = append(list, s)
	}
	n.succs = list
}

// liveSuccessorNeighbors returns the first successor-list entry that
// answers a Neighbors probe, evicting confirmed-dead ones along the way.
// ok=false means the current successor merely missed one deadline: it is
// suspected but not yet confirmed, so the caller should skip this round
// rather than act on an unverified failure.
func (n *Node) liveSuccessorNeighbors(ctx context.Context) (succ msg.NodeRef, nb *msg.NeighborsResp, ok bool) {
	for {
		n.mu.RLock()
		var cand msg.NodeRef
		for _, s := range n.succs {
			if !s.IsZero() {
				cand = s
				break
			}
		}
		n.mu.RUnlock()
		if cand.IsZero() {
			return msg.NodeRef{}, nil, true
		}
		if cand.ID == n.id {
			return n.ref, n.localNeighbors(), true
		}
		if nb := n.neighborsOf(ctx, cand); nb != nil {
			n.clearSuspicion(cand.Addr)
			return cand, nb, true
		}
		if !n.suspectFailure(cand) {
			return msg.NodeRef{}, nil, false
		}
	}
}

// neighborsOf probes ref for its ring neighborhood; nil means unreachable.
func (n *Node) neighborsOf(ctx context.Context, ref msg.NodeRef) *msg.NeighborsResp {
	resp, err := n.Call(ctx, transport.Addr(ref.Addr), &msg.NeighborsReq{})
	if err != nil {
		return nil
	}
	nb, ok := resp.(*msg.NeighborsResp)
	if !ok {
		return nil
	}
	return nb
}

// localNeighbors builds a NeighborsResp describing this node.
func (n *Node) localNeighbors() *msg.NeighborsResp {
	n.mu.RLock()
	defer n.mu.RUnlock()
	succs := make([]msg.NodeRef, len(n.succs))
	copy(succs, n.succs)
	return &msg.NeighborsResp{Pred: n.pred, Succs: succs}
}

// fixFingers refreshes one finger per invocation, round-robin, by looking
// up successor(self + 2^i).
func (n *Node) fixFingers(ctx context.Context) {
	n.mu.Lock()
	i := n.nextFix
	n.nextFix = (n.nextFix + 1) % ids.Bits
	n.mu.Unlock()

	target := ids.PowerOfTwoOffset(n.id, i)
	ref, _, err := n.lookupOnce(ctx, target, nil)
	if err != nil {
		return // transient; next round will retry
	}
	n.mu.Lock()
	n.fingers[i] = ref
	n.mu.Unlock()
}

// checkPredecessor clears a dead predecessor so that Notify can install a
// live one and key responsibility reflows.
func (n *Node) checkPredecessor(ctx context.Context) {
	n.mu.RLock()
	pred := n.pred
	n.mu.RUnlock()
	if pred.IsZero() || pred.ID == n.id {
		return
	}
	if !n.probe(ctx, pred) && n.suspectFailure(pred) {
		// suspectFailure's eviction cleared the predecessor (and any
		// other table entry naming it). The predecessor's failure makes
		// this node responsible for its keys. Services holding replicas
		// (the KTS Master-Succ role) promote them on demand when the
		// first request arrives.
		return
	}
}

// firstLiveSuccessor returns the first reachable successor (used by
// Leave); zero if none.
func (n *Node) firstLiveSuccessor(ctx context.Context) msg.NodeRef {
	list := n.SuccessorList()
	for _, s := range list {
		if s.IsZero() || s.ID == n.id {
			continue
		}
		if n.probe(ctx, s) {
			return s
		}
	}
	return msg.NodeRef{}
}

func containsRef(list []msg.NodeRef, r msg.NodeRef) bool {
	for _, x := range list {
		if x.Addr == r.Addr {
			return true
		}
	}
	return false
}
