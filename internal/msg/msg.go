// Package msg defines the wire messages exchanged by P2P-LTR peers.
//
// Every RPC in the system — Chord maintenance, DHT storage, the KTS
// timestamp service, and the P2P-Log — is a request/response pair of
// concrete types from this package. Concrete types (rather than ad-hoc
// maps) keep the protocol auditable. Each type lists its wire fields in a
// wire method beside it, and the tag table at the end of this file names
// every type the TCP transport can carry (the codec is in wire.go).
//
// Messages must be treated as immutable once sent: the in-process simnet
// transport passes them by reference.
package msg

import (
	"fmt"
	"time"

	"p2pltr/internal/ids"
)

// Message is implemented by every request and response type. The Kind
// method exists to force explicit registration and to aid tracing.
type Message interface {
	Kind() string
}

// NodeRef identifies a peer: its ring identifier and transport address.
type NodeRef struct {
	ID   ids.ID
	Addr string
}

func (n *NodeRef) wire(c *Coder) { c.ID(&n.ID); c.String(&n.Addr) }

// nodeRefMin is the fewest bytes a NodeRef encodes to.
const nodeRefMin = 9

// IsZero reports whether the reference is unset.
func (n NodeRef) IsZero() bool { return n.Addr == "" }

// TraceContext is the compact causal-tracing context every RPC envelope
// may carry: the commit-wide trace ID minted by the root span, the
// calling span's ID (the parent of any span the serving peer opens),
// and the RPC hop depth below the root. The zero value means "no active
// trace" and costs nothing on the wire beyond its fixed fields. It is a
// plain envelope field, not a Message: transports copy it alongside the
// request (tcpnet encodes it inside its frame envelope; simnet carries it
// on the call context), and the trace package interprets it.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Hops    uint8
}

// Wire codes the trace context's fields.
func (t *TraceContext) Wire(c *Coder) { c.Uint64(&t.TraceID); c.Uint64(&t.SpanID); c.Uint8(&t.Hops) }

func (n NodeRef) String() string {
	if n.IsZero() {
		return "<nil-node>"
	}
	return fmt.Sprintf("%s@%s", n.ID, n.Addr)
}

// ---------------------------------------------------------------------------
// Chord maintenance RPCs.

// FindSuccessorReq asks a node to locate successor(Key). Hops counts the
// routing steps accumulated so far (the chord.hops_per_lookup probe reads it).
type FindSuccessorReq struct {
	Key  ids.ID
	Hops int
}

func (m *FindSuccessorReq) wire(c *Coder) { c.ID(&m.Key); c.Int(&m.Hops) }

// FindSuccessorResp carries either the final responsible node
// (Final=true) or the next routing hop (Final=false).
type FindSuccessorResp struct {
	Node  NodeRef
	Final bool
}

func (m *FindSuccessorResp) wire(c *Coder) { m.Node.wire(c); c.Bool(&m.Final) }

// NeighborsReq asks a node for its predecessor and successor list; it is
// the probe used by stabilization.
type NeighborsReq struct{}

func (*NeighborsReq) wire(*Coder) {}

// NeighborsResp returns the node's current view of the ring around itself.
type NeighborsResp struct {
	Pred  NodeRef // zero if unknown
	Succs []NodeRef
}

func (m *NeighborsResp) wire(c *Coder) {
	m.Pred.wire(c)
	Slice(c, &m.Succs, nodeRefMin, (*NodeRef).wire)
}

// NotifyReq tells a node that Candidate might be its predecessor.
type NotifyReq struct {
	Candidate NodeRef
}

func (m *NotifyReq) wire(c *Coder) { m.Candidate.wire(c) }

// PingReq checks liveness.
type PingReq struct{}

func (*PingReq) wire(*Coder) {}

// Ack is the generic empty success response.
type Ack struct{}

func (*Ack) wire(*Coder) {}

// AbsorbReq is sent by a node leaving voluntarily: it pushes all of its
// service state to its successor before departing.
type AbsorbReq struct {
	Leaving NodeRef
	Items   []StateItem
}

func (m *AbsorbReq) wire(c *Coder) {
	m.Leaving.wire(c)
	Slice(c, &m.Items, stateItemMin, (*StateItem).wire)
}

// StateTransferReq migrates service state between live nodes when key
// responsibility moves during stabilization (a node discovered a new
// predecessor that now owns part of its range).
type StateTransferReq struct {
	Items []StateItem
}

func (m *StateTransferReq) wire(c *Coder) { Slice(c, &m.Items, stateItemMin, (*StateItem).wire) }

// StateItem is one unit of transferable service state. Service names the
// owning service ("dht", "kts", "log"); Key and ID locate the item on the
// ring; Value is the service-specific encoding.
type StateItem struct {
	Service string
	Key     string
	ID      ids.ID
	Value   []byte
}

func (s *StateItem) wire(c *Coder) {
	c.String(&s.Service)
	c.String(&s.Key)
	c.ID(&s.ID)
	c.Bytes(&s.Value)
}

// stateItemMin is the fewest bytes a StateItem encodes to.
const stateItemMin = 11

// ---------------------------------------------------------------------------
// DHT storage service RPCs.

// DHTPutReq stores Value under ring position ID (already hashed by the
// caller). Key is kept for debugging and state transfer.
type DHTPutReq struct {
	ID    ids.ID
	Key   string
	Value []byte
	// IfAbsent makes the put first-write-wins: the slot is immutable once
	// written. The P2P-Log relies on this to make (key, ts) slots
	// write-once.
	IfAbsent bool
	// Direct marks a request sent straight to a guessed owner (see
	// chord.Node.Owner) rather than to the end of a lookup walk: the
	// callee serves it only if it owns ID, and otherwise answers
	// NotOwner having stored nothing.
	Direct bool
}

func (m *DHTPutReq) wire(c *Coder) {
	c.ID(&m.ID)
	c.String(&m.Key)
	c.Bytes(&m.Value)
	c.Bool(&m.IfAbsent)
	c.Bool(&m.Direct)
}

// DHTPutResp reports whether the value was stored. When IfAbsent was set
// and the slot was already occupied by different content, Stored is false
// and Existing carries the occupant.
type DHTPutResp struct {
	Stored   bool
	Existing []byte
	// NotOwner refuses a Direct request: the callee does not own ID.
	NotOwner bool
}

func (m *DHTPutResp) wire(c *Coder) { c.Bool(&m.Stored); c.Bytes(&m.Existing); c.Bool(&m.NotOwner) }

// DHTReplicaPutReq is pushed by the peer responsible for a slot to its
// successor, which stores the copy in its replica set. This implements
// the paper's Log-Peers-Succ role: the successor "replaces the Log-Peers
// in case of crashes".
type DHTReplicaPutReq struct {
	Items []StateItem
	// Floors piggybacks the sender's truncation low-water marks, so a
	// successor that missed an earlier replica delete (lost message,
	// crash window) still learns which log prefixes are gone and never
	// resurrects their slots by promotion.
	Floors []TruncFloor
}

func (m *DHTReplicaPutReq) wire(c *Coder) {
	Slice(c, &m.Items, stateItemMin, (*StateItem).wire)
	Slice(c, &m.Floors, truncFloorMin, (*TruncFloor).wire)
}

// DHTRehomeReq batch-migrates stranded primaries to their routed
// owner: the DHT maintenance pass's bulk equivalent of per-slot
// DHTPutReq{IfAbsent: true} puts. Ownership over a contiguous ring
// interval lets the sender resolve one FindSuccessor per owner and ship
// every slot in that interval in a single request, so a node that
// transiently absorbed a large range re-homes it in O(owners) RPCs, not
// O(slots). Every item is stored first-write-wins, exactly like an
// IfAbsent put.
type DHTRehomeReq struct {
	Items []StateItem
}

func (m *DHTRehomeReq) wire(c *Coder) { Slice(c, &m.Items, stateItemMin, (*StateItem).wire) }

// DHTRehomeResp acknowledges a batch re-home. An item whose slot already
// had an occupant is not written (the occupant wins); the sender drops its
// stale copies either way.
type DHTRehomeResp struct{}

func (*DHTRehomeResp) wire(*Coder) {}

// TruncFloor is one document key's truncation low-water mark: every log
// slot of Key with timestamp <= TS has been reclaimed under a
// fully-replicated checkpoint, and every checkpoint of Key with
// timestamp < TS with it; none may be stored or promoted again.
type TruncFloor struct {
	Key string
	TS  uint64
}

func (f *TruncFloor) wire(c *Coder) { c.String(&f.Key); c.Uint64(&f.TS) }

// truncFloorMin is the fewest bytes a TruncFloor encodes to.
const truncFloorMin = 2

// DHTGetReq fetches the value at ring position ID.
type DHTGetReq struct {
	ID ids.ID
	// Wait, when positive, parks a read that misses at the owner for up
	// to Wait: the first store that fills the slot (put, re-home,
	// promotion) answers it at once, and an empty answer after Wait means
	// nothing arrived. Zero is a plain get.
	Wait time.Duration
	// Direct is DHTPutReq.Direct: a non-owner answers NotOwner without
	// reading, promoting or parking.
	Direct bool
}

func (m *DHTGetReq) wire(c *Coder) { c.ID(&m.ID); c.Duration(&m.Wait); c.Bool(&m.Direct) }

// DHTGetResp returns the value if present.
type DHTGetResp struct {
	Found bool
	Value []byte
	// NotOwner refuses a Direct request: the callee does not own ID.
	NotOwner bool
}

func (m *DHTGetResp) wire(c *Coder) { c.Bool(&m.Found); c.Bytes(&m.Value); c.Bool(&m.NotOwner) }

// DHTDeleteReq removes the slot at ring position ID from the responsible
// peer (and, via a replica delete, from its successor's copy set). The
// P2P-Log uses it to truncate log slots whose timestamps are covered by
// a fully-replicated checkpoint; the write-once invariant is preserved
// for the live tail because truncation never reaches past the latest
// checkpoint.
type DHTDeleteReq struct {
	ID ids.ID
	// Floor, when non-zero-Key, is the truncation low-water mark this
	// delete is part of: the sweep is reclaiming every log slot of
	// Floor.Key up to Floor.TS. The responsible peer records it so the
	// slot can never be re-installed from a stale successor copy, and
	// removes every primary log slot of Floor.Key at or below Floor.TS,
	// and every checkpoint of Floor.Key below it, before it answers.
	Floor TruncFloor
	// Direct is DHTPutReq.Direct: a non-owner answers NotOwner without
	// deleting, recording the floor or sweeping.
	Direct bool
}

func (m *DHTDeleteReq) wire(c *Coder) { c.ID(&m.ID); m.Floor.wire(c); c.Bool(&m.Direct) }

// DHTDeleteResp reports whether a slot existed and was removed. Swept
// counts the other primary log slots the same peer reclaimed under the
// delete's truncation floor (see DHTDeleteReq.Floor): by this delete's
// sweep, or earlier by a read or refresh walk that found them below it.
// The caller adds them, so a truncation's total counts each slot once,
// at the peer that removed it.
type DHTDeleteResp struct {
	Deleted bool
	Swept   int
	// Arc, when non-empty, is the responder's (predecessor, self]: a
	// floor-carrying delete addressed inside its own arc vouches that no
	// primary slot of Floor.Key at or below Floor.TS is left anywhere on
	// that arc at this peer, so the truncating caller can skip the arc's
	// other slots. Empty when the request carried no floor, the
	// responder knows no predecessor, or ID lies outside its arc.
	Arc ids.Arc
	// NotOwner refuses a Direct request: the callee does not own ID.
	NotOwner bool
}

func (m *DHTDeleteResp) wire(c *Coder) {
	c.Bool(&m.Deleted)
	c.Int(&m.Swept)
	c.ID(&m.Arc.From)
	c.ID(&m.Arc.To)
	c.Bool(&m.NotOwner)
}

// DHTReplicaDeleteReq is pushed by a slot's owner to its successor after
// a delete, so stale successor copies cannot resurrect truncated slots.
type DHTReplicaDeleteReq struct {
	IDs []ids.ID
	// Floor carries the truncation low-water mark of the delete that
	// triggered this push (zero Key when the delete was not part of a
	// truncation sweep).
	Floor TruncFloor
}

func (m *DHTReplicaDeleteReq) wire(c *Coder) {
	Slice(c, &m.IDs, 8, func(id *ids.ID, c *Coder) { c.ID(id) })
	m.Floor.wire(c)
}

// ---------------------------------------------------------------------------
// KTS timestamp service RPCs (gen_ts / last_ts / validate-and-publish).

// ValidateStatus enumerates the outcomes of a patch timestamp validation.
type ValidateStatus uint8

const (
	// ValidateOK: the patch was timestamped and published; ValidatedTS is
	// its continuous timestamp.
	ValidateOK ValidateStatus = iota
	// ValidateBehind: the caller is missing patches; it must retrieve
	// (CallerTS, LastTS] from the P2P-Log, reconcile, and retry.
	ValidateBehind
	// ValidateNotMaster: the callee is not (or no longer) the Master-key
	// peer for the key; the caller must re-run lookup.
	ValidateNotMaster
	// ValidateBusy: the master's per-key admission queue is full (hot-key
	// protection). The caller should back off for RetryAfterMS and retry;
	// no state changed on the master.
	ValidateBusy
)

func (s ValidateStatus) String() string {
	switch s {
	case ValidateOK:
		return "ok"
	case ValidateBehind:
		return "behind"
	case ValidateNotMaster:
		return "not-master"
	case ValidateBusy:
		return "busy"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// ValidateReq implements the paper's put(ht(key), patch+ts): user peer u
// asks the Master-key of Key to validate its tentative patch. TS is the
// timestamp of the last patch u has integrated (its local ts); the new
// patch, if accepted, receives TS+1.
type ValidateReq struct {
	Key   string
	TS    uint64
	Patch []byte
	// PatchID uniquely identifies the tentative patch (author + sequence)
	// so the master can recognize a crash-window republish of the same
	// patch.
	PatchID string
}

func (m *ValidateReq) wire(c *Coder) {
	c.String(&m.Key)
	c.Uint64(&m.TS)
	c.Bytes(&m.Patch)
	c.String(&m.PatchID)
}

// ValidateResp is the master's decision.
type ValidateResp struct {
	Status      ValidateStatus
	ValidatedTS uint64 // set when Status == ValidateOK
	LastTS      uint64 // master's last-ts, always set when master
	// CkptTS is the newest checkpoint timestamp the master knows for the
	// key (0 = none). Piggybacking it on every validation ack lets user
	// peers learn of newer checkpoints for free.
	CkptTS uint64
	// RetryAfterMS is the backoff hint accompanying ValidateBusy: the
	// suggested wait (milliseconds) before retrying, scaled to how far
	// over the admission limit the master's queue currently is.
	RetryAfterMS uint64
}

func (m *ValidateResp) wire(c *Coder) {
	c.Uint8((*uint8)(&m.Status))
	c.Uint64(&m.ValidatedTS)
	c.Uint64(&m.LastTS)
	c.Uint64(&m.CkptTS)
	c.Uint64(&m.RetryAfterMS)
}

// LastTSReq implements last_ts(key).
type LastTSReq struct {
	Key string
}

func (m *LastTSReq) wire(c *Coder) { c.String(&m.Key) }

// LastTSResp returns the last timestamp generated for the key (0 = no
// patches yet).
type LastTSResp struct {
	LastTS uint64
	// NotMaster mirrors ValidateNotMaster for this RPC.
	NotMaster bool
	// CkptTS is the newest checkpoint timestamp for the key (0 = none);
	// a puller whose committed prefix is older bootstraps from the
	// checkpoint plus the log tail instead of replaying from 1.
	CkptTS uint64
	// HadEntry reports whether the callee already held a timestamp entry
	// for the key before this call (the handler creates one as a side
	// effect). The maintenance discovery pass uses it to tell a genuine
	// entry-chain resurrection from a probe of a healthy key.
	HadEntry bool
}

func (m *LastTSResp) wire(c *Coder) {
	c.Uint64(&m.LastTS)
	c.Bool(&m.NotMaster)
	c.Uint64(&m.CkptTS)
	c.Bool(&m.HadEntry)
}

// ReplicateTSReq is sent by the Master-key to its Master-Succ after each
// grant so that the successor can take over with a correct last-ts.
type ReplicateTSReq struct {
	Key    string
	LastTS uint64
	// CkptTS rides along so a takeover also knows the latest checkpoint.
	CkptTS uint64
}

func (m *ReplicateTSReq) wire(c *Coder) {
	c.String(&m.Key)
	c.Uint64(&m.LastTS)
	c.Uint64(&m.CkptTS)
}

// CheckpointAnnounceReq registers a freshly published checkpoint with the
// Master-key of Key. Routing announcements through the master serializes
// pointer updates per key (the per-key validation mutex), so the latest
// checkpoint pointer only ever moves forward in timestamp order.
type CheckpointAnnounceReq struct {
	Key string
	TS  uint64
}

func (m *CheckpointAnnounceReq) wire(c *Coder) { c.String(&m.Key); c.Uint64(&m.TS) }

// CheckpointAnnounceResp is the master's decision on an announcement.
// CkptTS is the pointer after the call (>= TS when accepted).
type CheckpointAnnounceResp struct {
	Accepted  bool
	CkptTS    uint64
	NotMaster bool
}

func (m *CheckpointAnnounceResp) wire(c *Coder) {
	c.Bool(&m.Accepted)
	c.Uint64(&m.CkptTS)
	c.Bool(&m.NotMaster)
}

// The P2P-Log needs no dedicated RPCs: its write-once replica slots are
// DHTPutReq{IfAbsent: true} / DHTGetReq at the positions given by the Hr
// hash family (see internal/p2plog).

// ---------------------------------------------------------------------------
// Kind implementations and the tag table.

func (FindSuccessorReq) Kind() string  { return "chord.find_successor.req" }
func (FindSuccessorResp) Kind() string { return "chord.find_successor.resp" }
func (NeighborsReq) Kind() string      { return "chord.neighbors.req" }
func (NeighborsResp) Kind() string     { return "chord.neighbors.resp" }
func (NotifyReq) Kind() string         { return "chord.notify.req" }
func (PingReq) Kind() string           { return "chord.ping.req" }
func (Ack) Kind() string               { return "ack" }
func (AbsorbReq) Kind() string         { return "chord.absorb.req" }
func (StateTransferReq) Kind() string  { return "chord.state_transfer.req" }
func (DHTPutReq) Kind() string         { return "dht.put.req" }
func (DHTPutResp) Kind() string        { return "dht.put.resp" }
func (DHTReplicaPutReq) Kind() string  { return "dht.replica_put.req" }
func (DHTGetReq) Kind() string         { return "dht.get.req" }
func (DHTGetResp) Kind() string        { return "dht.get.resp" }
func (DHTDeleteReq) Kind() string      { return "dht.delete.req" }
func (DHTDeleteResp) Kind() string     { return "dht.delete.resp" }

func (DHTReplicaDeleteReq) Kind() string    { return "dht.replica_delete.req" }
func (DHTRehomeReq) Kind() string           { return "dht.rehome.req" }
func (DHTRehomeResp) Kind() string          { return "dht.rehome.resp" }
func (ValidateReq) Kind() string            { return "kts.validate.req" }
func (ValidateResp) Kind() string           { return "kts.validate.resp" }
func (LastTSReq) Kind() string              { return "kts.last_ts.req" }
func (LastTSResp) Kind() string             { return "kts.last_ts.resp" }
func (ReplicateTSReq) Kind() string         { return "kts.replicate.req" }
func (CheckpointAnnounceReq) Kind() string  { return "kts.ckpt_announce.req" }
func (CheckpointAnnounceResp) Kind() string { return "kts.ckpt_announce.resp" }

// wireMessage is a Message the codec carries: a type in wireTags.
type wireMessage interface {
	Message
	wire(*Coder)
}

// wireTags is the message tag table: a message's tag on the wire is its
// index here, and tag 0 is "no message". Tags are on the wire, so a new
// type is appended; an index is never reordered or reused, and a retired
// type leaves a nil entry, which decodes as an unknown tag.
var wireTags = [...]func() wireMessage{
	nil,
	func() wireMessage { return new(FindSuccessorReq) },
	func() wireMessage { return new(FindSuccessorResp) },
	func() wireMessage { return new(NeighborsReq) },
	func() wireMessage { return new(NeighborsResp) },
	func() wireMessage { return new(NotifyReq) },
	func() wireMessage { return new(PingReq) },
	func() wireMessage { return new(Ack) },
	nil, // 8: retired (chord.handover.req; a join's state moves on notify)
	nil, // 9: retired (chord.handover.resp)
	func() wireMessage { return new(AbsorbReq) },
	func() wireMessage { return new(StateTransferReq) },
	func() wireMessage { return new(DHTPutReq) },
	func() wireMessage { return new(DHTPutResp) },
	func() wireMessage { return new(DHTReplicaPutReq) },
	func() wireMessage { return new(DHTGetReq) },
	func() wireMessage { return new(DHTGetResp) },
	func() wireMessage { return new(DHTDeleteReq) },
	func() wireMessage { return new(DHTDeleteResp) },
	func() wireMessage { return new(DHTReplicaDeleteReq) },
	func() wireMessage { return new(DHTRehomeReq) },
	func() wireMessage { return new(DHTRehomeResp) },
	func() wireMessage { return new(ValidateReq) },
	func() wireMessage { return new(ValidateResp) },
	func() wireMessage { return new(LastTSReq) },
	func() wireMessage { return new(LastTSResp) },
	func() wireMessage { return new(ReplicateTSReq) },
	func() wireMessage { return new(CheckpointAnnounceReq) },
	func() wireMessage { return new(CheckpointAnnounceResp) },
}

// tagOf maps a message kind to its tag in wireTags.
var tagOf = func() map[string]uint64 {
	m := make(map[string]uint64, len(wireTags))
	for tag, f := range wireTags {
		if f != nil {
			m[f().Kind()] = uint64(tag)
		}
	}
	return m
}()

// Message codes a tagged message: its tag, then its fields. Encoding a
// message whose type is not in the tag table fails.
func (c *Coder) Message(m *Message) {
	if c.dec {
		tag := c.uvarint()
		switch {
		case c.err != nil:
		case tag == 0:
			*m = nil
		case tag >= uint64(len(wireTags)) || wireTags[tag] == nil:
			c.fail("unknown message tag %d", tag)
		default:
			wm := wireTags[tag]()
			wm.wire(c)
			*m = wm
		}
		return
	}
	if *m == nil {
		c.buf = append(c.buf, 0)
		return
	}
	wm, ok := (*m).(wireMessage)
	tag := tagOf[(*m).Kind()]
	if !ok || tag == 0 {
		c.fail("%T has no wire tag", *m)
		return
	}
	c.Uint64(&tag)
	wm.wire(c)
}

// All returns one zero value of every message type, in tag order; the
// protocol round-trip tests range over it.
func All() []Message {
	out := make([]Message, 0, len(wireTags))
	for _, f := range wireTags {
		if f != nil {
			out = append(out, f())
		}
	}
	return out
}
