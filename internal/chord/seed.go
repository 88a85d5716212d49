package chord

import (
	"sort"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
)

// SeedRing wires the given not-yet-started nodes into an already
// consistent ring — successor lists, predecessors and finger tables are
// computed directly from the sorted membership — and then starts their
// maintenance. It is the warm start the scale tests use: building
// a thousand-peer ring through sequential Joins costs O(N log N) RPC
// round trips of (virtual) time before the measured phase can begin,
// whereas a seeded ring is in the same state those joins converge to.
//
// The nodes must all be created and none started; membership changes
// after seeding go through the normal Join/Leave/crash protocols.
func SeedRing(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	n := len(sorted)
	refs := make([]msg.NodeRef, n)
	for i, nd := range sorted {
		refs[i] = nd.ref
	}
	// successorIdx returns the index of successor(key): the first node at
	// or after key on the circle.
	successorIdx := func(key ids.ID) int {
		i := sort.Search(n, func(i int) bool { return sorted[i].id >= key })
		if i == n {
			return 0 // wrap around
		}
		return i
	}
	for i, nd := range sorted {
		nd.mu.Lock()
		nd.pred = refs[(i-1+n)%n]
		succs := make([]msg.NodeRef, 0, nd.cfg.SuccListLen)
		for k := 1; k < n && len(succs) < nd.cfg.SuccListLen; k++ {
			succs = append(succs, refs[(i+k)%n])
		}
		if len(succs) == 0 {
			succs = append(succs, nd.ref) // single-node ring
		}
		nd.succs = succs
		for b := 0; b < ids.Bits; b++ {
			nd.fingers[b] = refs[successorIdx(ids.PowerOfTwoOffset(nd.id, b))]
		}
		nd.mu.Unlock()
	}
	// Start in sorted order: under a virtual clock this fixes the arming
	// order (and so the same-instant firing order) of every node's
	// maintenance tickers.
	for _, nd := range sorted {
		nd.start()
	}
}
