// Package msg defines the wire messages exchanged by P2P-LTR peers.
//
// Every RPC in the system — Chord maintenance, DHT storage, the KTS
// timestamp service, and the P2P-Log — is a request/response pair of
// concrete types from this package. Concrete types (rather than ad-hoc
// maps) keep the protocol auditable and let the TCP transport encode
// everything with encoding/gob.
//
// Messages must be treated as immutable once sent: the in-process simnet
// transport passes them by reference.
package msg

import (
	"encoding/gob"
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

// IsZero reports whether the reference is unset.
func (n NodeRef) IsZero() bool { return n.Addr == "" }

// TraceContext is the compact causal-tracing context every RPC envelope
// may carry: the commit-wide trace ID minted by the root span, the
// calling span's ID (the parent of any span the serving peer opens),
// and the RPC hop depth below the root. The zero value means "no active
// trace" and costs nothing on the wire beyond its fixed fields. It is a
// plain envelope field, not a Message: transports copy it alongside the
// request (tcpnet gob-encodes it inside its envelope; simnet carries it
// on the call context), and the trace package interprets it.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Hops    uint8
}

func (n NodeRef) String() string {
	if n.IsZero() {
		return "<nil-node>"
	}
	return fmt.Sprintf("%s@%s", n.ID, n.Addr)
}

// ---------------------------------------------------------------------------
// Chord maintenance RPCs.

// FindSuccessorReq asks a node to locate successor(Key). Hops counts the
// routing steps accumulated so far (used by experiment E5).
type FindSuccessorReq struct {
	Key  ids.ID
	Hops int
}

// FindSuccessorResp carries either the final responsible node
// (Final=true) or the next routing hop (Final=false), plus the hop count.
type FindSuccessorResp struct {
	Node  NodeRef
	Hops  int
	Final bool
}

// NeighborsReq asks a node for its predecessor and successor list; it is
// the probe used by stabilization.
type NeighborsReq struct{}

// NeighborsResp returns the node's current view of the ring around itself.
type NeighborsResp struct {
	Self  NodeRef
	Pred  NodeRef // zero if unknown
	Succs []NodeRef
}

// NotifyReq tells a node that Candidate might be its predecessor.
type NotifyReq struct {
	Candidate NodeRef
}

// PingReq checks liveness.
type PingReq struct{}

// Ack is the generic empty success response.
type Ack struct{}

// HandoverReq is sent by a joining node to its successor: the successor
// must export all service state in (PredID, NewNode.ID] to the new node.
type HandoverReq struct {
	NewNode NodeRef
}

// HandoverResp carries the exported state items, grouped by service.
type HandoverResp struct {
	Items []StateItem
}

// AbsorbReq is sent by a node leaving voluntarily: it pushes all of its
// service state to its successor before departing.
type AbsorbReq struct {
	Leaving NodeRef
	Items   []StateItem
}

// StateTransferReq migrates service state between live nodes when key
// responsibility moves during stabilization (a node discovered a new
// predecessor that now owns part of its range).
type StateTransferReq struct {
	From  NodeRef
	Items []StateItem
}

// StateItem is one unit of transferable service state. Service names the
// owning service ("dht", "kts", "log"); Key and ID locate the item on the
// ring; Value is the service-specific encoding.
type StateItem struct {
	Service string
	Key     string
	ID      ids.ID
	Value   []byte
}

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
}

// DHTPutResp reports whether the value was stored. When IfAbsent was set
// and the slot was already occupied by different content, Stored is false
// and Existing carries the occupant.
type DHTPutResp struct {
	Stored   bool
	Existing []byte
}

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

// DHTRehomeResp acknowledges a batch re-home. Stored counts the items
// actually written (the rest already had an occupant, which wins); the
// sender drops its stale copies either way.
type DHTRehomeResp struct {
	Stored int
}

// TruncFloor is one document key's truncation low-water mark: every log
// slot of Key with timestamp <= TS has been reclaimed under a
// fully-replicated checkpoint and must never be stored or promoted
// again.
type TruncFloor struct {
	Key string
	TS  uint64
}

// DHTGetReq fetches the value at ring position ID.
type DHTGetReq struct {
	ID ids.ID
	// Wait, when positive, parks a read that misses at the owner for up
	// to Wait: the first store that fills the slot (put, re-home,
	// promotion) answers it at once, and an empty answer after Wait means
	// nothing arrived. Zero is a plain get.
	Wait time.Duration
}

// DHTGetResp returns the value if present.
type DHTGetResp struct {
	Found bool
	Value []byte
}

// DHTDeleteReq removes the slot at ring position ID from the responsible
// peer (and, via a replica delete, from its successor's copy set). The
// checkpoint layer uses it to truncate P2P-Log slots whose timestamps are
// covered by a fully-replicated checkpoint; the write-once invariant is
// preserved for the live tail because truncation never reaches past the
// latest checkpoint.
type DHTDeleteReq struct {
	ID ids.ID
	// Floor, when non-zero-Key, is the truncation low-water mark this
	// delete is part of: the sweep is reclaiming every log slot of
	// Floor.Key up to Floor.TS. The responsible peer records it so the
	// slot can never be re-installed from a stale successor copy.
	Floor TruncFloor
}

// DHTDeleteResp reports whether a slot existed and was removed. Swept
// counts additional primary slots the delete's truncation floor
// reclaimed on the same peer (see DHTDeleteReq.Floor) — the caller adds
// them so a truncation sweep's total stays exact even when the floor
// sweep beats the remaining per-slot deletes to the slots.
type DHTDeleteResp struct {
	Deleted bool
	Swept   int
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

// LastTSReq implements last_ts(key).
type LastTSReq struct {
	Key string
}

// LastTSResp returns the last timestamp generated for the key. Known is
// false when the callee has no entry (ts 0 = no patches yet).
type LastTSResp struct {
	LastTS uint64
	Known  bool
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

// ReplicateTSReq is sent by the Master-key to its Master-Succ after each
// grant so that the successor can take over with a correct last-ts.
type ReplicateTSReq struct {
	Key    string
	TSID   ids.ID // ht(Key), the ring position governing responsibility
	LastTS uint64
	// CkptTS rides along so a takeover also knows the latest checkpoint.
	CkptTS uint64
}

// CheckpointAnnounceReq registers a freshly published checkpoint with the
// Master-key of Key. Routing announcements through the master serializes
// pointer updates per key (the per-key validation mutex), so the latest
// checkpoint pointer only ever moves forward in timestamp order.
type CheckpointAnnounceReq struct {
	Key string
	TS  uint64
}

// CheckpointAnnounceResp is the master's decision on an announcement.
// CkptTS is the pointer after the call (>= TS when accepted).
type CheckpointAnnounceResp struct {
	Accepted  bool
	CkptTS    uint64
	NotMaster bool
}

// The P2P-Log needs no dedicated RPCs: its write-once replica slots are
// DHTPutReq{IfAbsent: true} / DHTGetReq at the positions given by the Hr
// hash family (see internal/p2plog).

// ---------------------------------------------------------------------------
// Kind implementations and gob registration.

func (FindSuccessorReq) Kind() string  { return "chord.find_successor.req" }
func (FindSuccessorResp) Kind() string { return "chord.find_successor.resp" }
func (NeighborsReq) Kind() string      { return "chord.neighbors.req" }
func (NeighborsResp) Kind() string     { return "chord.neighbors.resp" }
func (NotifyReq) Kind() string         { return "chord.notify.req" }
func (PingReq) Kind() string           { return "chord.ping.req" }
func (Ack) Kind() string               { return "ack" }
func (HandoverReq) Kind() string       { return "chord.handover.req" }
func (HandoverResp) Kind() string      { return "chord.handover.resp" }
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

// Register registers every message type with encoding/gob. The TCP
// transport calls it once; calling it multiple times is harmless.
func Register() {
	for _, m := range All() {
		gob.Register(m)
	}
}

// All returns one zero value of every message type; used by Register and
// by protocol round-trip tests.
func All() []Message {
	return []Message{
		&FindSuccessorReq{}, &FindSuccessorResp{},
		&NeighborsReq{}, &NeighborsResp{},
		&NotifyReq{}, &PingReq{}, &Ack{},
		&HandoverReq{}, &HandoverResp{}, &AbsorbReq{}, &StateTransferReq{},
		&DHTPutReq{}, &DHTPutResp{}, &DHTReplicaPutReq{}, &DHTGetReq{}, &DHTGetResp{},
		&DHTDeleteReq{}, &DHTDeleteResp{}, &DHTReplicaDeleteReq{},
		&DHTRehomeReq{}, &DHTRehomeResp{},
		&ValidateReq{}, &ValidateResp{},
		&LastTSReq{}, &LastTSResp{}, &ReplicateTSReq{},
		&CheckpointAnnounceReq{}, &CheckpointAnnounceResp{},
	}
}
