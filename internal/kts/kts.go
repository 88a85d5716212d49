// Package kts implements P2P-LTR's distributed timestamp service, based
// on the Key-based Timestamp Service of "Data Currency in Replicated
// DHTs" (Akbarinia et al., SIGMOD 2007) as adapted by the paper.
//
// For each document key k, the peer responsible for ht(k) on the ring is
// the Master-key peer. It provides the paper's three operations:
//
//   - gen_ts(key): generate the next timestamp, with monotonicity AND the
//     continuous-timestamping property (consecutive timestamps differ by
//     exactly one);
//   - last_ts(key): return the last generated timestamp;
//   - sendToPublish(key, last-ts, patch): replicate the timestamped patch
//     at the Log-Peers via the Hr hash family, and replicate last-ts at
//     the Master-key-Succ peer.
//
// Validation protocol (per the paper): a user peer holding local
// timestamp ts asks the master to publish its tentative patch. If the
// master's last-ts equals ts, the master generates ts+1, publishes the
// patch in the P2P-Log, replicates last-ts at its successor, and acks
// with the validated timestamp. If last-ts > ts, the user must first
// retrieve the missing patches in total order and retry. The master
// serves each user sequentially per key: a new timestamp is only granted
// after the previous patch's replication completed.
//
// Failover: the Master-key-Succ holds a replica of last-ts and takes over
// when the master departs (the Owns check flips as Chord stabilizes).
// After a crash that loses even the successor replica, the master
// re-synchronizes last-ts from the write-once P2P-Log itself, which is
// the authoritative record of granted timestamps.
package kts

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/chord"
	"p2pltr/internal/ids"
	"p2pltr/internal/metrics"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// ServiceName identifies KTS state items in Chord handovers.
const ServiceName = "kts"

// ErrAheadOfLog is returned when a client claims a local timestamp higher
// than anything recorded in the P2P-Log — state corruption on the client.
var ErrAheadOfLog = errors.New("kts: client timestamp ahead of the log")

// entry is the per-key timestamp state. An entry exists on the master
// (authoritative) and on its successor (replica); the Owns check decides
// which role the local node currently plays.
//
// mu is the paper's "the Master-key serves each user peer sequentially"
// serialization, and it is held ACROSS the log publish and recovery
// RPCs — which is why it must be a clock-aware vclock.Mutex: a plain
// sync.Mutex would block a second validator outside the virtual
// scheduler's accounting and freeze the whole simulated timeline.
type entry struct {
	mu     *vclock.Mutex
	lastTS uint64
	// ckptTS is the latest checkpoint pointer for the key (0 = none).
	// It only moves forward, and only through the master, so checkpoint
	// pointers are updated in timestamp order.
	ckptTS uint64
	// synced marks an entry this node has verified against the
	// authoritative DHT record (by granting, recovering, or an explicit
	// log walk). Replica entries installed by ReplicateTS or state
	// transfer are NOT synced: best-effort replication may have lost the
	// last grants, so answering authoritatively from them can
	// under-report after a takeover.
	synced bool

	// fastLastTS/fastCkptTS are lock-free mirrors of lastTS/ckptTS,
	// refreshed (noteLocked) whenever the locked values rise. Both locked
	// values are monotone lower bounds of granted history — even on an
	// unsynced replica — so a validator whose claimed ts is below
	// fastLastTS is provably Behind and can be answered without parking
	// on the per-key mutex. That fast path is what keeps a thundering
	// herd of stale retries on a hot document O(1) at the master.
	fastLastTS atomic.Uint64
	fastCkptTS atomic.Uint64
	// inflight counts validators currently admitted past the fast path
	// for this key; the admission limit sheds the excess with
	// ValidateBusy instead of queueing them all on mu.
	inflight atomic.Int64
}

// noteLocked publishes the entry's monotone counters to the lock-free
// mirrors the hot-key fast path reads. Called with e.mu held after any
// raise of lastTS or ckptTS.
func (e *entry) noteLocked() {
	e.fastLastTS.Store(e.lastTS)
	e.fastCkptTS.Store(e.ckptTS)
}

// Service is the timestamp service mounted on a Chord node.
type Service struct {
	ring  chord.Ring
	log   *p2plog.Log
	ckpt  *checkpoint.Store
	clock vclock.Clock // accounts the per-key serialization waits (see entry.mu)

	mu      sync.Mutex
	entries map[string]*entry

	// admission bounds how many validators may wait on any one key's
	// serialization mutex at once (hot-key admission; 0 = unlimited).
	// Requests beyond it receive ValidateBusy with a backoff hint instead
	// of queueing, so a thousand concurrent editors of one document
	// degrade to bounded per-request latency rather than an unbounded
	// master queue.
	admission int64

	// tracer records a "validate" span per request, with
	// admission-wait/sync/publish/replicate stages and
	// fast-reject/busy-shed annotations (nil = tracing off; every span
	// call is a no-op on nil). rec records timestamp-lifecycle events
	// (grant, shed, takeover) into the peer's flight recorder; nil is a
	// valid no-op recorder.
	tracer *trace.Tracer
	rec    *trace.Recorder

	// counters is the exportable family: grants, rejects, takeovers,
	// fast-rejects, busy-rejects, last-ts-calls. The members are cached
	// at construction so hot paths skip the family map lookup.
	counters     *metrics.Family
	cGrants      *metrics.Counter
	cRejects     *metrics.Counter
	cTakeovers   *metrics.Counter
	cFastRejects *metrics.Counter
	cBusyRejects *metrics.Counter
	cLastTSCalls *metrics.Counter
}

// NewService creates a timestamp service. log is used for sendToPublish
// and for last-ts recovery; ckpt holds the per-key latest-checkpoint
// pointer the service maintains on announcements and fast-forwards
// last-ts recovery across truncated history with. admissionLimit <= 0
// leaves hot-key admission unlimited; tr and rec may be nil.
func NewService(ring chord.Ring, log *p2plog.Log, ckpt *checkpoint.Store, clk vclock.Clock,
	tr *trace.Tracer, rec *trace.Recorder, admissionLimit int) *Service {
	f := metrics.NewFamily()
	return &Service{
		ring: ring, log: log, ckpt: ckpt, clock: clk, entries: make(map[string]*entry),
		admission: int64(admissionLimit), tracer: tr, rec: rec,
		counters:     f,
		cGrants:      f.Counter("grants"),
		cRejects:     f.Counter("rejects"),
		cTakeovers:   f.Counter("takeovers"),
		cFastRejects: f.Counter("fast-rejects"),
		cBusyRejects: f.Counter("busy-rejects"),
		cLastTSCalls: f.Counter("last-ts-calls"),
	}
}

// Counters returns the service's metric family: grants, rejects (fast
// rejects included), takeovers, fast-rejects, busy-rejects and
// last-ts-calls.
func (s *Service) Counters() *metrics.Family { return s.counters }

// AdmissionQueueDepth returns the instantaneous number of validators
// admitted past the fast path and not yet finished, summed over keys —
// the live depth the admission limit bounds per key.
func (s *Service) AdmissionQueueDepth() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	// Commutative sum: Load observes no order. lint:unordered-ok
	for _, e := range s.entries {
		n += e.inflight.Load()
	}
	return n
}

// Name implements chord.Service.
func (s *Service) Name() string { return ServiceName }

// keyed is one timestamp entry and the key it is filed under.
type keyed struct {
	key string
	e   *entry
}

// sortedEntries returns every entry in key order. It collects them under
// s.mu, and callers lock each e.mu only after it is released: e.mu parks
// (a master holds it across publishes), and holding the plain s.mu
// across that park would block every other entryFor caller outside the
// virtual scheduler's accounting — freezing a simulated timeline, and
// stalling all KTS RPCs on this node for up to a master-op timeout on a
// real one. Key order matters as much: callers issue per-entry RPCs, and
// map order would issue them in a different order each run, which a
// deterministic simulation cannot tolerate (every call draws from the
// seeded latency/drop streams).
func (s *Service) sortedEntries() []keyed {
	s.mu.Lock()
	out := make([]keyed, 0, len(s.entries))
	// out is sorted below before anyone reads it. lint:unordered-ok
	for key, e := range s.entries {
		out = append(out, keyed{key, e})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// timestamps reads the entry's last-ts and checkpoint pointer.
func (e *entry) timestamps() (lastTS, ckptTS uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastTS, e.ckptTS
}

// entryFor returns (creating if needed) the state for key.
func (s *Service) entryFor(key string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		e = &entry{mu: vclock.NewMutex(s.clock)}
		s.entries[key] = e
	}
	return e
}

// HandleRPC implements chord.Service.
func (s *Service) HandleRPC(ctx context.Context, from transport.Addr, req msg.Message) (msg.Message, bool, error) {
	switch r := req.(type) {
	case *msg.ValidateReq:
		resp, err := s.handleValidate(ctx, r)
		return resp, true, err
	case *msg.LastTSReq:
		return s.handleLastTS(ctx, r), true, nil
	case *msg.ReplicateTSReq:
		s.handleReplicate(r)
		return &msg.Ack{}, true, nil
	case *msg.CheckpointAnnounceReq:
		resp, err := s.handleAnnounce(ctx, r)
		return resp, true, err
	}
	return nil, false, nil
}

// handleValidate is the patch timestamp validation procedure.
func (s *Service) handleValidate(ctx context.Context, r *msg.ValidateReq) (resp msg.Message, err error) {
	tsID := ids.HashTS(r.Key)
	if !s.ring.Owns(tsID) {
		return &msg.ValidateResp{Status: msg.ValidateNotMaster}, nil
	}
	// StartRemote continues the trace context the transport extracted
	// from the envelope: the validate span on the master shares the
	// committing editor's trace ID. Without a propagated context it is an
	// ordinary root span, as before.
	sp := s.tracer.StartRemote(ctx, "validate", r.Key, s.ring.Ref().Addr)
	defer func() { sp.EndErr(err) }()
	e := s.entryFor(r.Key)

	// Batched-grant fast path: the lock-free lastTS mirror is a monotone
	// lower bound of granted history, so a claimed ts below it is
	// provably Behind — answer the stale thundering herd without ever
	// parking on the per-key serialization.
	if v := e.fastLastTS.Load(); r.TS < v {
		// A fast reject is also a reject, so the aggregate the experiments
		// report stays exact.
		s.cRejects.Add(1)
		s.cFastRejects.Add(1)
		sp.Note("fast-reject", 1)
		return &msg.ValidateResp{Status: msg.ValidateBehind, LastTS: v, CkptTS: e.fastCkptTS.Load()}, nil
	}

	// Hot-key admission: shed validators beyond the inflight limit with a
	// backoff hint instead of queueing them all on the mutex.
	if limit := s.admission; limit > 0 {
		n := e.inflight.Add(1)
		if n > limit {
			e.inflight.Add(-1)
			s.cBusyRejects.Add(1)
			retry := uint64(n-limit) * 25
			if retry > 500 {
				retry = 500
			}
			sp.Note("busy-shed", int64(retry))
			s.rec.Record(ctx, "kts-shed", r.Key, "retry-ms="+strconv.FormatUint(retry, 10))
			return &msg.ValidateResp{
				Status: msg.ValidateBusy, LastTS: e.fastLastTS.Load(),
				CkptTS: e.fastCkptTS.Load(), RetryAfterMS: retry,
			}, nil
		}
		defer e.inflight.Add(-1)
	}

	// The paper: "the corresponding Master-key serves each user peer
	// sequentially" — the per-key mutex is that serialization.
	e.mu.Lock()
	defer e.mu.Unlock()
	sp.Mark("admission-wait")

	if !e.synced {
		// First grant since this node became (or believes itself) master:
		// verify the replica state against the authoritative write-once
		// record before granting on top of it.
		if err := s.syncFromLogLocked(ctx, r.Key, e); err != nil {
			return nil, err
		}
		sp.Mark("sync")
	}
	if r.TS > e.lastTS {
		// The client knows more than we do: we lost state (e.g. both the
		// master and its successor were replaced). Recover from the log,
		// the authoritative write-once record.
		if err := s.recoverFromLog(ctx, r.Key, e, r.TS); err != nil {
			return nil, err
		}
		sp.Mark("sync")
	}
	if r.TS < e.lastTS {
		s.cRejects.Add(1)
		sp.Note("behind", int64(e.lastTS-r.TS))
		return &msg.ValidateResp{Status: msg.ValidateBehind, LastTS: e.lastTS, CkptTS: e.ckptTS}, nil
	}

	// gen_ts: continuous timestamping.
	newTS := e.lastTS + 1

	// sendToPublish: replicate the patch at the Log-Peers first. The log
	// is the commit point; last-ts replicas are recoverable from it.
	_, perr := s.log.Publish(ctx, p2plog.Record{
		Key: r.Key, TS: newTS, PatchID: r.PatchID, Patch: r.Patch,
	})
	sp.Mark("publish")
	if perr != nil {
		if errors.Is(perr, p2plog.ErrConflict) {
			// A previous master incarnation already published this
			// timestamp with a different patch. Converge on the log:
			// fast-forward and tell the caller to retrieve.
			e.lastTS = newTS
			e.noteLocked()
			s.replicateToSucc(ctx, r.Key, tsID, e)
			sp.Mark("replicate")
			s.cRejects.Add(1)
			return &msg.ValidateResp{Status: msg.ValidateBehind, LastTS: e.lastTS, CkptTS: e.ckptTS}, nil
		}
		return nil, fmt.Errorf("kts: publish (%s,%d): %w", r.Key, newTS, perr)
	}

	// Replicate last-ts at the Master-key-Succ, then commit locally and
	// acknowledge the user with the validated timestamp.
	e.lastTS = newTS
	e.synced = true
	e.noteLocked()
	s.replicateToSucc(ctx, r.Key, tsID, e)
	sp.Mark("replicate")
	s.cGrants.Add(1)
	s.rec.Record(ctx, "kts-grant", r.Key, "ts="+strconv.FormatUint(newTS, 10))
	return &msg.ValidateResp{Status: msg.ValidateOK, ValidatedTS: newTS, LastTS: newTS, CkptTS: e.ckptTS}, nil
}

// syncFromLogLocked brings e to the authoritative state recorded in the
// DHT: the latest checkpoint pointer first (it fast-forwards past any
// truncated prefix), then a walk of the write-once log to its end. On
// success the entry is marked synced: this node may answer for it
// authoritatively until it loses mastership. Called with e.mu held.
func (s *Service) syncFromLogLocked(ctx context.Context, key string, e *entry) error {
	ptr, err := s.ckpt.LatestPointer(ctx, key)
	if err != nil {
		return fmt.Errorf("kts: checkpoint pointer for %s: %w", key, err)
	}
	if ptr > e.ckptTS {
		e.ckptTS = ptr
	}
	if ptr > e.lastTS {
		e.lastTS = ptr
	}
	for {
		ok, err := s.log.Exists(ctx, key, e.lastTS+1)
		if err != nil {
			return fmt.Errorf("kts: syncing last-ts for %s: %w", key, err)
		}
		if !ok {
			break
		}
		e.lastTS++
	}
	e.synced = true
	e.noteLocked()
	return nil
}

// recoverFromLog advances e.lastTS as far as the checkpoint pointer and
// the log prove timestamps were granted; the claimed target must be
// covered or the client's state is corrupt. Called with e.mu held.
func (s *Service) recoverFromLog(ctx context.Context, key string, e *entry, target uint64) error {
	if err := s.syncFromLogLocked(ctx, key, e); err != nil {
		return err
	}
	if e.lastTS < target {
		return fmt.Errorf("%w: key %s, claimed ts %d, log ends at %d",
			ErrAheadOfLog, key, target, e.lastTS)
	}
	return nil
}

// handleLastTS implements last_ts(key). A master answering for the first
// time since taking over verifies its replica state against the log, so
// pullers never observe an under-reported last-ts after failover.
func (s *Service) handleLastTS(ctx context.Context, r *msg.LastTSReq) *msg.LastTSResp {
	tsID := ids.HashTS(r.Key)
	if !s.ring.Owns(tsID) {
		return &msg.LastTSResp{NotMaster: true}
	}
	s.cLastTSCalls.Add(1)
	s.mu.Lock()
	_, had := s.entries[r.Key]
	s.mu.Unlock()
	e := s.entryFor(r.Key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.synced {
		// Best-effort: an unreachable log means answering from the
		// replica value, which is still monotone — just possibly stale.
		_ = s.syncFromLogLocked(ctx, r.Key, e)
	}
	return &msg.LastTSResp{LastTS: e.lastTS, Known: e.lastTS > 0, CkptTS: e.ckptTS, HadEntry: had}
}

// handleAnnounce installs a freshly published checkpoint as the key's
// latest checkpoint pointer. Serializing announcements under the per-key
// mutex (and refusing regressions) keeps the pointer moving strictly
// forward in timestamp order.
func (s *Service) handleAnnounce(ctx context.Context, r *msg.CheckpointAnnounceReq) (msg.Message, error) {
	tsID := ids.HashTS(r.Key)
	if !s.ring.Owns(tsID) {
		return &msg.CheckpointAnnounceResp{NotMaster: true}, nil
	}
	e := s.entryFor(r.Key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.TS <= e.ckptTS {
		return &msg.CheckpointAnnounceResp{Accepted: false, CkptTS: e.ckptTS}, nil
	}
	if r.TS > e.lastTS {
		// A checkpoint can only cover granted history; sync and re-check.
		if err := s.syncFromLogLocked(ctx, r.Key, e); err != nil {
			return nil, err
		}
		if r.TS > e.lastTS {
			return &msg.CheckpointAnnounceResp{Accepted: false, CkptTS: e.ckptTS}, nil
		}
	}
	// The pointer is a promise that bootstrap will succeed: the
	// snapshot must be retrievable before the pointer moves.
	if _, err := s.ckpt.Fetch(ctx, r.Key, r.TS); err != nil {
		return nil, fmt.Errorf("kts: announced checkpoint unreadable: %w", err)
	}
	e.ckptTS = r.TS
	e.noteLocked()
	// Pointer records are advisory replicas of e.ckptTS; a failed
	// write heals on the next announce or Maintain pass.
	_ = s.ckpt.WritePointer(ctx, r.Key, r.TS)
	s.replicateToSucc(ctx, r.Key, tsID, e)
	return &msg.CheckpointAnnounceResp{Accepted: true, CkptTS: e.ckptTS}, nil
}

// Announce registers a published checkpoint with this node acting as the
// key's master, advancing the latest-checkpoint pointer through the same
// serialized path remote announcements take. The maintenance engine calls
// it after producing a fallback snapshot. accepted is false when the
// pointer already covers ts (a late or duplicate producer — harmless by
// write-once idempotence) or when this node is not the master; ckptTS
// reports the pointer either way.
func (s *Service) Announce(ctx context.Context, key string, ts uint64) (accepted bool, ckptTS uint64, err error) {
	resp, err := s.handleAnnounce(ctx, &msg.CheckpointAnnounceReq{Key: key, TS: ts})
	if err != nil {
		return false, 0, err
	}
	ar, ok := resp.(*msg.CheckpointAnnounceResp)
	if !ok || ar.NotMaster {
		return false, 0, nil
	}
	return ar.Accepted, ar.CkptTS, nil
}

// handleReplicate installs a last-ts replica pushed by the current
// master. Values only move forward, so stale or reordered replications
// are harmless. The push proves another node is granting for this key,
// so any authority this node earned as a past master is void: the entry
// drops back to unsynced and re-verifies against the log if this node
// is promoted again (best-effort pushes may have missed the last grants).
func (s *Service) handleReplicate(r *msg.ReplicateTSReq) {
	e := s.entryFor(r.Key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.LastTS > e.lastTS {
		e.lastTS = r.LastTS
	}
	if r.CkptTS > e.ckptTS {
		e.ckptTS = r.CkptTS
	}
	e.noteLocked()
	e.synced = false
}

// replicateToSucc pushes the entry's last-ts and checkpoint pointer to
// the Master-key-Succ. Failure is tolerated: the write-once log allows
// full recovery, and the next grant retries the replication anyway.
// Called with e.mu held.
func (s *Service) replicateToSucc(ctx context.Context, key string, tsID ids.ID, e *entry) {
	succ := s.ring.Successor()
	if succ.IsZero() || succ.ID == s.ring.Ref().ID {
		return
	}
	_, _ = s.ring.Call(ctx, transport.Addr(succ.Addr), &msg.ReplicateTSReq{
		Key: key, TSID: tsID, LastTS: e.lastTS, CkptTS: e.ckptTS,
	})
}

// Maintain implements chord.Maintainer: it periodically re-replicates the
// last-ts of every key this node masters to the *current* Master-key-Succ,
// repairing replica chains broken by churn (the successor at grant time
// may have departed since).
func (s *Service) Maintain(ctx context.Context) {
	succ := s.ring.Successor()
	self := s.ring.Ref()
	if succ.IsZero() || succ.ID == self.ID {
		return
	}
	// Ownership is decided for the whole pass before the first RPC; each
	// entry's timestamps are read just before its own.
	var owned []keyed
	for _, k := range s.sortedEntries() {
		if s.ring.Owns(ids.HashTS(k.key)) {
			owned = append(owned, k)
		}
	}
	for _, k := range owned {
		last, ckpt := k.e.timestamps()
		_, _ = s.ring.Call(ctx, transport.Addr(succ.Addr), &msg.ReplicateTSReq{
			Key: k.key, TSID: ids.HashTS(k.key), LastTS: last, CkptTS: ckpt,
		})
	}
}

// EnsureKey re-establishes the timestamp entry chain for a key this node
// has evidence of (e.g. log or checkpoint slots in its DHT store) but no
// local entry for. It is the maintenance engine's answer to total
// entry-chain loss: when both the master and its successor crash, no
// surviving node holds an entry, so the per-key scan never visits the
// key again even though its log slots persist. If this node masters
// ht(key), the entry is rebuilt locally from the authoritative log;
// otherwise a last_ts probe is sent to the current master, whose handler
// rebuilds the entry as a side effect. Reports whether an entry was
// (re)established anywhere.
func (s *Service) EnsureKey(ctx context.Context, key string) (created bool, err error) {
	s.mu.Lock()
	_, exists := s.entries[key]
	s.mu.Unlock()
	if exists {
		return false, nil
	}
	tsID := ids.HashTS(key)
	if s.ring.Owns(tsID) {
		e := s.entryFor(key)
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.synced {
			return false, nil
		}
		if err := s.syncFromLogLocked(ctx, key, e); err != nil {
			return false, err
		}
		return true, nil
	}
	// A master named by the ring view without a lookup (chord.Ring.Owner)
	// is asked first; its NotMaster verdict, or no answer, sends the
	// probe down the lookup walk instead.
	if guess, ok := s.ring.Owner(tsID); ok {
		resp, err := s.ring.Call(ctx, transport.Addr(guess.Addr), &msg.LastTSReq{Key: key})
		if lr, ok := resp.(*msg.LastTSResp); err == nil && ok && !lr.NotMaster {
			return !lr.HadEntry, nil
		}
	}
	master, _, err := s.ring.FindSuccessor(ctx, tsID)
	if err != nil {
		return false, err
	}
	if master.IsZero() || master.ID == s.ring.Ref().ID {
		return false, nil
	}
	resp, err := s.ring.Call(ctx, transport.Addr(master.Addr), &msg.LastTSReq{Key: key})
	if err != nil {
		return false, err
	}
	lr, ok := resp.(*msg.LastTSResp)
	if !ok || lr.NotMaster {
		return false, nil
	}
	return !lr.HadEntry, nil
}

// ---------------------------------------------------------------------------
// State transfer (join/leave): "the old responsible transfers its keys
// and timestamps to the new Master-key".

// ExportOutside implements chord.Service. The entries whose ht position
// falls outside (newPred, self] now belong to the joining predecessor.
// This node keeps a copy: it is the new master's Master-key-Succ, and
// replicas only ever move forward, so retaining is safe and preserves
// availability.
func (s *Service) ExportOutside(newPred, self ids.ID) []msg.StateItem {
	return s.export(func(tsID ids.ID) bool { return !ids.BetweenRightIncl(tsID, newPred, self) })
}

// ExportAll implements chord.Service (voluntary leave: push everything to
// the successor, which becomes the master).
func (s *Service) ExportAll() []msg.StateItem {
	return s.export(func(ids.ID) bool { return true })
}

// export returns, in key order, the state items of every entry whose ht
// position keep accepts.
func (s *Service) export(keep func(ids.ID) bool) []msg.StateItem {
	entries := s.sortedEntries()
	items := make([]msg.StateItem, 0, len(entries))
	for _, k := range entries {
		if tsID := ids.HashTS(k.key); keep(tsID) {
			last, ckpt := k.e.timestamps()
			items = append(items, stateItem(k.key, tsID, last, ckpt))
		}
	}
	return items
}

// Import implements chord.Service: installs transferred timestamps,
// merging monotonically with any replica already present.
func (s *Service) Import(items []msg.StateItem) {
	for _, it := range items {
		last, ckpt, err := parseStateValue(string(it.Value))
		if err != nil {
			continue // malformed item; the log can still recover it
		}
		e := s.entryFor(it.Key)
		e.mu.Lock()
		if last > e.lastTS {
			e.lastTS = last
		}
		if ckpt > e.ckptTS {
			e.ckptTS = ckpt
		}
		e.noteLocked()
		// Transferred state is another node's view; verify against the
		// log before answering for it authoritatively.
		e.synced = false
		e.mu.Unlock()
	}
	s.cTakeovers.Add(1)
	s.rec.Record(nil, "kts-takeover", "", "items="+strconv.Itoa(len(items)))
}

func stateItem(key string, tsID ids.ID, lastTS, ckptTS uint64) msg.StateItem {
	return msg.StateItem{
		Service: ServiceName,
		Key:     key,
		ID:      tsID,
		Value:   []byte(strconv.FormatUint(lastTS, 10) + "/" + strconv.FormatUint(ckptTS, 10)),
	}
}

// parseStateValue decodes a transferred "lastTS/ckptTS" value; a bare
// integer (no checkpoint pointer) is accepted for robustness.
func parseStateValue(v string) (lastTS, ckptTS uint64, err error) {
	lastPart, ckptPart, found := strings.Cut(v, "/")
	if lastTS, err = strconv.ParseUint(lastPart, 10, 64); err != nil {
		return 0, 0, err
	}
	if !found {
		return lastTS, 0, nil
	}
	if ckptTS, err = strconv.ParseUint(ckptPart, 10, 64); err != nil {
		return 0, 0, err
	}
	return lastTS, ckptTS, nil
}

// ---------------------------------------------------------------------------
// Introspection for experiments and tests.

// LastTSLocal returns the locally known last-ts for key (primary or
// replica) without any ownership check.
func (s *Service) LastTSLocal(key string) (uint64, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastTS, true
}

// KeyState is the per-key view the maintenance scan iterates: the local
// last-ts and latest-checkpoint pointer plus whether this node currently
// masters the key. Values may lag the authoritative log on an unsynced
// replica entry — monotone under-reporting, which only delays (never
// mis-triggers) maintenance actions.
type KeyState struct {
	Key    string
	LastTS uint64
	CkptTS uint64
	Master bool
}

// KeyStates enumerates the per-key timestamp state this node holds
// (primary or replica), in key order; the maintenance engine scans it
// each pass, and its per-key actions issue RPCs, so the scan order must
// not depend on map iteration for simulations to replay identically.
func (s *Service) KeyStates() []KeyState {
	entries := s.sortedEntries()
	out := make([]KeyState, 0, len(entries))
	for _, k := range entries {
		last, ckpt := k.e.timestamps()
		out = append(out, KeyState{Key: k.key, LastTS: last, CkptTS: ckpt, Master: s.ring.Owns(ids.HashTS(k.key))})
	}
	return out
}

// Stats returns cumulative grant/reject/takeover counters.
func (s *Service) Stats() (grants, rejects, takeovers int64) {
	return s.cGrants.Value(), s.cRejects.Value(), s.cTakeovers.Value()
}

// AdmissionStats returns the hot-key protection counters: Behind
// rejections answered on the lock-free fast path, and requests shed with
// ValidateBusy by the admission limit.
func (s *Service) AdmissionStats() (fastRejects, busyRejects int64) {
	return s.cFastRejects.Value(), s.cBusyRejects.Value()
}

// LastTSCalls returns how many last_ts RPCs this node has served. The
// gateway's follower-isolation tests assert it stays flat while
// followers read.
func (s *Service) LastTSCalls() int64 { return s.cLastTSCalls.Value() }
