package chord

import (
	"context"
	"fmt"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
)

// handle is the transport-level dispatcher: Chord maintenance messages are
// served here, everything else is offered to the mounted services.
//
// Most requests are served regardless of lifecycle state — a node a
// failed Join attempt left half-joined (constructed, never started,
// idle between retries) keeps answering notifies, state transfers and
// service RPCs, because the pre-start notify may already have moved
// real state onto it and refusing would make that state unreachable.
// Two message kinds are the exception, and together they let the ring
// heal around the half-joined record:
//
//   - Liveness probes — Ping and Neighbors — are REFUSED while idle.
//     The successor adopted the joiner as predecessor on the pre-start
//     notify, so its record is already in the ring; if the idle node kept
//     acking probes, suspicion would reset on every contact (a
//     Neighbors answer clears suspicion too, see
//     liveSuccessorNeighbors), stabilization would never evict the
//     record, and stale successor-list entries naming it would keep
//     feeding best-effort-final lookup answers forever. Refusing makes
//     the idle stretches between join attempts look like death —
//     provided the caller spaces retries out (see the join backoff in
//     simtest), eviction's confirming strikes land and every table
//     heals.
//
//   - Lookups are answered WITHOUT authority (see handleFindSuccessor):
//     an error would poison the whole walk — walk() can only route
//     around transport-level failures, not application errors — while a
//     final answer from empty tables bottoms the lookup out on the
//     phantom's own record. A plain redirect to the installed successor
//     does neither.
func (n *Node) handle(ctx context.Context, from transport.Addr, req msg.Message) (msg.Message, error) {
	// Server-side child span: when the transport extracted a trace
	// context from the envelope, the whole dispatch runs under a child
	// span tagged with this peer's address — that is how a commit's
	// route/rpc/validate/replicate segments on different peers end up
	// sharing one trace ID. Gated on the remote carrier so untraced
	// maintenance RPCs (pings, stabilize probes) open no spans at all.
	if n.tracer != nil {
		if _, ok := trace.RemoteFromContext(ctx); ok {
			sp := n.tracer.StartRemote(ctx, "serve", req.Kind(), n.ref.Addr)
			ctx = trace.NewContext(ctx, sp)
			resp, err := n.dispatch(ctx, from, req)
			sp.EndErr(err)
			return resp, err
		}
	}
	return n.dispatch(ctx, from, req)
}

// dispatch routes one request to its protocol handler or mounted service.
func (n *Node) dispatch(ctx context.Context, from transport.Addr, req msg.Message) (msg.Message, error) {
	switch r := req.(type) {
	case *msg.PingReq:
		if n.idle() {
			return nil, fmt.Errorf("chord: %s: node not running", n.ref)
		}
		return &msg.Ack{}, nil
	case *msg.NeighborsReq:
		if n.idle() {
			return nil, fmt.Errorf("chord: %s: node not running", n.ref)
		}
		return n.localNeighbors(), nil
	case *msg.FindSuccessorReq:
		return n.handleFindSuccessor(ctx, r)
	case *msg.NotifyReq:
		n.handleNotify(r.Candidate)
		return &msg.Ack{}, nil
	case *msg.AbsorbReq:
		n.handleAbsorb(ctx, r)
		return &msg.Ack{}, nil
	case *msg.StateTransferReq:
		n.importItems(r.Items)
		return &msg.Ack{}, nil
	}
	for _, s := range n.services {
		resp, handled, err := s.HandleRPC(ctx, from, req)
		if handled {
			return resp, err
		}
	}
	return nil, fmt.Errorf("chord: %s: unhandled message %s", n.ref, req.Kind())
}

// handleNotify implements Chord's notify: adopt Candidate as predecessor
// if we have none or it lies in (pred, self). Adopting a new predecessor
// moves key responsibility, so state the node no longer owns migrates to
// the new predecessor. This is the join-time handover — a joiner
// notifies its successor before it starts (finishJoin) — and its
// stabilization-time complement, needed when several peers join in quick
// succession and the ring links up only through stabilization.
func (n *Node) handleNotify(cand msg.NodeRef) {
	if cand.IsZero() || cand.ID == n.id {
		return
	}
	n.mu.Lock()
	adopted := false
	if n.pred.IsZero() || n.pred.ID == n.id || ids.Between(cand.ID, n.pred.ID, n.id) {
		n.pred = cand
		adopted = true
	}
	n.mu.Unlock()
	if !adopted {
		return
	}
	var items []msg.StateItem
	for _, s := range n.services {
		items = append(items, s.ExportOutside(cand.ID, n.id)...)
	}
	if len(items) == 0 {
		return
	}
	n.clock.Go(func() {
		ctx, cancel := n.clock.WithTimeout(context.Background(), n.cfg.CallTimeout)
		defer cancel()
		if _, err := n.Call(ctx, transport.Addr(cand.Addr), &msg.StateTransferReq{Items: items}); err != nil {
			// The new predecessor vanished before the transfer landed;
			// re-adopt the items so they are not lost and let the next
			// stabilization round retry the migration.
			n.importItems(items)
		}
	})
}

// handleAbsorb installs the state pushed by a voluntarily leaving
// predecessor.
func (n *Node) handleAbsorb(ctx context.Context, r *msg.AbsorbReq) {
	n.rec.Record(ctx, "chord-absorb", r.Leaving.Addr, fmt.Sprintf("items=%d", len(r.Items)))
	n.importItems(r.Items)
	n.mu.Lock()
	if n.pred.Addr == r.Leaving.Addr {
		n.pred = msg.NodeRef{}
	}
	n.mu.Unlock()
	n.evict(r.Leaving)
}

// importItems routes transferred state items to their owning services.
func (n *Node) importItems(items []msg.StateItem) {
	if len(items) == 0 {
		return
	}
	byService := make(map[string][]msg.StateItem)
	for _, it := range items {
		byService[it.Service] = append(byService[it.Service], it)
	}
	for _, s := range n.services {
		if batch := byService[s.Name()]; len(batch) > 0 {
			s.Import(batch)
		}
	}
}
