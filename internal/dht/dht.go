// Package dht implements the DHT storage layer of P2P-LTR: the put/get
// functionality the paper takes from OpenChord, exposed as a Chord
// service plus a client that routes operations to the responsible peer.
//
// Storage slots are addressed by ring position. The client hashes string
// keys itself (plain data placement); replicated records — log patches,
// checkpoints and pointers — are placed and named by ids.Slot and written
// through PutSlots, and read slot by slot through GetID.
package dht

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/ids"
	"p2pltr/internal/metrics"
	"p2pltr/internal/msg"
	"p2pltr/internal/store"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// ServiceName identifies DHT state items in Chord state transfers.
const ServiceName = "dht"

// Service is the storage half: it accepts DHTPut/DHTGet RPCs and
// participates in key-range transfer.
//
// Every slot a peer is responsible for is additionally copied to the
// peer's immediate successor (the paper's Log-Peers-Succ role: the
// successor "replaces the Log-Peers in case of crashes"). The copy lives
// in a separate replica set that is not part of key-range transfers; when
// the owner fails, its successor — now the owner — promotes the replica
// to primary on first access and re-replicates onward.
type Service struct {
	st    *store.Store // slots this peer serves (primary)
	rep   *store.Store // successor copies of the predecessor's slots
	rng   chord.Ring   // the ring view successor replication and re-homing use
	clock vclock.Clock // runs the asynchronous successor-copy pushes and their timeouts
	// rec records storage-lifecycle events (promotion, re-home, floor
	// sweep/derive) into the peer's flight recorder; nil is a valid no-op
	// recorder.
	rec *trace.Recorder
	// floorHint re-derives truncation floors lost to a process restart
	// (see NewService); nil disables the derivation.
	floorHint func(ctx context.Context, key string) (uint64, bool)

	mu sync.Mutex
	// floors holds the per-document-key truncation low-water marks this
	// peer has learned: every log slot of key with ts <= floors[key].ts
	// was reclaimed under a fully-replicated checkpoint, and every
	// checkpoint of key older than it is dead history (see reclaimed).
	// Consulted on every path that could re-materialize a slot — replica
	// installs, successor-copy promotion, write-once puts — because churn
	// racing the async copy delete otherwise resurrects truncated slots
	// that no later sweep revisits (the maintenance engine's own low-water
	// mark makes each sweep O(new history), so it never re-deletes them).
	floors map[string]keyFloor
	// floorCheckedAt records when each key's floorHint was last
	// consulted. Keys re-check every DefaultFloorRecheck, so a
	// checkpoint pointer that advances after the first consult still
	// raises the floor — once-per-process derivation left every later
	// pointer advance invisible until the next restart.
	floorCheckedAt map[string]time.Time

	// parkMu guards parked: the reads parked on each empty primary slot,
	// in arrival order (see parkGet). Its own lock, so a wake never
	// contends with the floor bookkeeping; never held across a park.
	parkMu sync.Mutex
	parked map[ids.ID][]*parkedRead

	// counters is the exportable storage metric family; members are
	// cached so RPC hot paths skip the family map lookup.
	counters      *metrics.Family
	cPuts         *metrics.Counter
	cReplicaPuts  *metrics.Counter
	cGets         *metrics.Counter
	cGetMisses    *metrics.Counter
	cDeletes      *metrics.Counter
	cPromotions   *metrics.Counter
	cFloorSweeps  *metrics.Counter
	cFloorDerived *metrics.Counter
	cRehomes      *metrics.Counter
	cNotOwner     *metrics.Counter
}

// NewService returns an empty DHT storage service on ring. clk runs the
// asynchronous successor-copy pushes (virtual-time simulations need their
// goroutines and timeouts accounted for); rec receives the storage
// lifecycle events (nil = off).
//
// floorHint, when non-nil, is the truncation-floor re-derivation source
// Maintain consults for document keys that have log slots stored locally
// — first for keys with no recorded floor (the state of a freshly
// restarted process, whose in-memory floors are gone while stale slot
// copies may still arrive from lagging peers), then again every
// DefaultFloorRecheck so an advancing pointer keeps raising the floor
// without waiting for another restart. The hint returns the floor to
// record (0 = none derivable) and ok=false when its source was
// unreachable (the key is retried next pass). core.Peer passes the replicated checkpoint
// pointer minus the maintenance engine's KeepIntervals safety margin:
// everything below that would have been reclaimed by the truncation
// sweep in steady state and is recoverable from the checkpoint the
// pointer names.
func NewService(ring chord.Ring, clk vclock.Clock, rec *trace.Recorder, floorHint func(ctx context.Context, key string) (uint64, bool)) *Service {
	s := &Service{st: store.New(), rep: store.New(),
		rng: ring, clock: clk, rec: rec, floorHint: floorHint,
		floors: make(map[string]keyFloor), floorCheckedAt: make(map[string]time.Time),
		parked:   make(map[ids.ID][]*parkedRead),
		counters: metrics.NewFamily()}
	s.cPuts = s.counters.Counter("puts")
	s.cReplicaPuts = s.counters.Counter("replica-puts")
	s.cGets = s.counters.Counter("gets")
	s.cGetMisses = s.counters.Counter("get-misses")
	s.cDeletes = s.counters.Counter("deletes")
	s.cPromotions = s.counters.Counter("promotions")
	s.cFloorSweeps = s.counters.Counter("floor-swept-slots")
	s.cFloorDerived = s.counters.Counter("floors-derived")
	s.cRehomes = s.counters.Counter("rehomes")
	s.cNotOwner = s.counters.Counter("not-owner")
	return s
}

// Counters returns the service's storage metric family: puts,
// replica-puts, gets, get-misses, deletes, promotions,
// floor-swept-slots, floors-derived, rehomes, not-owner (Direct
// requests refused).
func (s *Service) Counters() *metrics.Family { return s.counters }

// DefaultFloorRecheck is how often deriveFloors re-consults the hint
// for a key it already checked: long enough that steady-state passes
// stay O(new history), short enough that a pointer advancing after the
// first consult raises the floor within a couple of truncation periods.
const DefaultFloorRecheck = time.Minute

// keyFloor is what a peer knows of one document key's truncation.
type keyFloor struct {
	// ts is the low-water mark: every log slot at or below it, and
	// every checkpoint below it, is reclaimed history.
	ts uint64
	// swept is the highest floor a floor-carrying delete swept the
	// primary store to. Every path that stores a primary checks the
	// floor first, so none at or below swept can have arrived since.
	swept uint64
	// unreported counts the primary log slots reclaimed under ts outside
	// a floor-carrying delete — a read or the refresh walk got there
	// first. The next delete carrying ts reports them: they belong to
	// the truncation that set it.
	unreported int
}

// noteFloor records a truncation low-water mark. When it rises, the
// replica set is swept for slots below it: that sweep is what finally
// reclaims copies the delete/copy race smuggled past earlier truncations
// (which never revisit reclaimed history). It runs at most once per
// horizon advance per key.
//
// Only the DHTDeleteReq channel sweeps primaries (sweepPrimary), once per
// floor, whether this delete or an earlier out-of-band message raised it:
// the reply vouches that no primary at or below the floor is left on the
// responder's arc (see msg.DHTDeleteResp.Arc). The count of primary log
// slots reclaimed under the floor rides back to the truncating caller,
// so sweep accounting stays exact: each slot is counted once, by the
// peer that removed it. Checkpoints the same sweeps reclaim are not in
// that count: it measures the log truncation. Floors learned out of band
// — a replica-delete push or the Maintain refresh piggyback — do not
// sweep primaries; a primary below such a floor is reclaimed by the next
// floor-carrying delete that reaches its peer, or before that on a read
// or refresh walk, which leaves a log slot's count to that delete.
func (s *Service) noteFloor(f msg.TruncFloor, sweepPrimary bool) (sweptPrimary int) {
	if f.Key == "" || f.TS == 0 {
		return 0
	}
	s.mu.Lock()
	kf := s.floors[f.Key]
	raised := f.TS > kf.ts
	if raised {
		kf = keyFloor{ts: f.TS, swept: kf.swept}
	}
	sweepSt := sweepPrimary && f.TS > kf.swept
	if sweepSt {
		kf.swept = f.TS
	}
	if sweepPrimary && f.TS == kf.ts {
		sweptPrimary, kf.unreported = kf.unreported, 0
	}
	s.floors[f.Key] = kf
	s.mu.Unlock()
	swept := 0
	if raised {
		_, swept = s.sweepBelow(s.rep, f)
	}
	if sweepSt {
		logs, n := s.sweepBelow(s.st, f)
		sweptPrimary += logs
		swept += n
	}
	if raised || swept > 0 {
		s.rec.Record(nil, "dht-floor-sweep", f.Key, fmt.Sprintf("ts=%d swept=%d", f.TS, swept))
	}
	return sweptPrimary
}

// reclaimed reports whether slot is history that a truncation floor of
// its key at floor has reclaimed: a log record at or below the floor, or
// a checkpoint strictly below it. Bootstrapping from a checkpoint at
// C < floor needs the log records (C, floor], which the floor removed,
// so only the checkpoint at the floor and the ones above it can still
// serve. Pointer slots are never reclaimed, and the pointer never names
// a reclaimed checkpoint: the floor is the pointer less the maintenance
// engine's KeepIntervals margin, so every floor leaves the pair
// "checkpoint at the floor + log above it".
func reclaimed(slot ids.Slot, floor uint64) bool {
	switch slot.Kind {
	case ids.KindLog:
		return slot.TS <= floor
	case ids.KindCheckpoint:
		return slot.TS < floor
	}
	return false
}

// sweepBelow removes from st every slot of f.Key that floor f reclaims
// (see reclaimed), in one pass under the store lock, and returns how
// many log slots and how many slots in all it removed.
func (s *Service) sweepBelow(st *store.Store, f msg.TruncFloor) (logs, swept int) {
	swept = st.DeleteIf(func(e store.Entry) bool {
		slot, _, ok := ids.ParseSlot(e.Key)
		if !ok || slot.Key != f.Key || !reclaimed(slot, f.TS) {
			return false
		}
		if slot.Kind == ids.KindLog {
			logs++
		}
		return true
	})
	s.cFloorSweeps.Add(int64(swept))
	return logs, swept
}

// reclaimPrimary removes a primary slot found below its key's floor
// outside a floor-carrying delete. A log slot's count is left to the
// next delete that carries that floor; a checkpoint is not counted.
func (s *Service) reclaimPrimary(id ids.ID, slotName string) {
	if !s.st.Delete(id) {
		return
	}
	key, _, ok := ids.ParseLogSlotName(slotName)
	if !ok {
		return
	}
	s.mu.Lock()
	kf := s.floors[key]
	kf.unreported++
	s.floors[key] = kf
	s.mu.Unlock()
}

// vouchedArc is the arc a floor-carrying delete of id lets this peer
// vouch for: its (predecessor, self], when it knows a predecessor other
// than itself and id lies on that arc. The empty arc vouches for
// nothing: a peer with no predecessor over-claims the whole ring (see
// chord.Node.Owns), and a delete routed to it from outside its arc came
// over a stale route. A predecessor pointer that still lags a join
// over-claims the joiner's part of the arc; the joiner's own floor
// derivation (deriveFloors) and refresh walk reclaim what it holds there.
func (s *Service) vouchedArc(id ids.ID) ids.Arc {
	pred, self := s.rng.Predecessor(), s.rng.Ref()
	if pred.IsZero() || pred.ID == self.ID {
		return ids.Arc{}
	}
	arc := ids.Arc{From: pred.ID, To: self.ID}
	if !arc.Contains(id) {
		return ids.Arc{}
	}
	return arc
}

// Floor returns the truncation low-water mark this peer holds for a
// document key (0 when none is known): every log slot of key with
// ts <= Floor(key), and every checkpoint of key with ts < Floor(key), is
// reclaimed history this peer will neither serve nor re-accept. Exposed
// for tests and monitoring.
func (s *Service) Floor(key string) uint64 { return s.floorOf(key) }

// floorOf returns the recorded low-water mark for a document key.
func (s *Service) floorOf(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[key].ts
}

// belowFloor reports whether the slot named by debugKey is a log slot
// or checkpoint its key's truncation low-water mark says must stay dead.
func (s *Service) belowFloor(debugKey string) bool {
	slot, _, ok := ids.ParseSlot(debugKey)
	return ok && reclaimed(slot, s.floorOf(slot.Key))
}

// floorSnapshot copies the floor map as a sorted slice for piggybacking
// on successor refreshes.
func (s *Service) floorSnapshot() []msg.TruncFloor {
	s.mu.Lock()
	out := make([]msg.TruncFloor, 0, len(s.floors))
	for k, kf := range s.floors {
		out = append(out, msg.TruncFloor{Key: k, TS: kf.ts})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Name implements chord.Service.
func (s *Service) Name() string { return ServiceName }

// Store exposes the underlying primary store (tests and monitoring).
func (s *Service) Store() *store.Store { return s.st }

// ReplicaStore exposes the successor-copy store (tests and monitoring).
func (s *Service) ReplicaStore() *store.Store { return s.rep }

// refuses reports whether a request marked direct for id must be
// answered NotOwner: it was sent to a guessed owner (see
// chord.Node.Owner), and this peer does not own id. Such a request
// stores, parks, sweeps and replicates nothing. Requests routed by a
// lookup walk are served as they arrive.
func (s *Service) refuses(direct bool, id ids.ID) bool {
	if direct && !s.rng.Owns(id) {
		s.cNotOwner.Add(1)
		return true
	}
	return false
}

// HandleRPC implements chord.Service.
func (s *Service) HandleRPC(ctx context.Context, from transport.Addr, req msg.Message) (msg.Message, bool, error) {
	switch r := req.(type) {
	case *msg.DHTPutReq:
		if s.refuses(r.Direct, r.ID) {
			return &msg.DHTPutResp{NotOwner: true}, true, nil
		}
		s.cPuts.Add(1)
		if s.belowFloor(r.Key) {
			// A read-repair or late republish racing the truncation sweep,
			// or a late producer's checkpoint older than the floor: the
			// slot is reclaimed history under a fully-replicated
			// checkpoint, so acknowledging without storing is the
			// truncation outcome the sweep already committed to.
			return &msg.DHTPutResp{Stored: true}, true, nil
		}
		var resp *msg.DHTPutResp
		if r.IfAbsent {
			stored, existing := s.st.PutIfAbsent(r.ID, r.Key, r.Value)
			resp = &msg.DHTPutResp{Stored: stored, Existing: existing}
		} else {
			s.st.Put(r.ID, r.Key, r.Value)
			resp = &msg.DHTPutResp{Stored: true}
		}
		if resp.Stored {
			s.wakeParked(r.ID)
			s.replicateToSucc([]msg.StateItem{{Service: ServiceName, Key: r.Key, ID: r.ID, Value: r.Value}})
		}
		return resp, true, nil
	case *msg.DHTRehomeReq:
		// Bulk stranded-primary migration: each item lands exactly as a
		// DHTPutReq{IfAbsent: true} would — below-floor slots are acked
		// without storing (the truncation sweep already reclaimed their
		// prefix), occupied slots keep their occupant — and the stored
		// remainder is pushed to the successor in one replica batch.
		s.cPuts.Add(int64(len(r.Items)))
		var stored []msg.StateItem
		for _, it := range r.Items {
			if s.belowFloor(it.Key) {
				continue
			}
			if ok, _ := s.st.PutIfAbsent(it.ID, it.Key, it.Value); ok {
				s.wakeParked(it.ID)
				stored = append(stored, msg.StateItem{Service: ServiceName, Key: it.Key, ID: it.ID, Value: it.Value})
			}
		}
		s.replicateToSucc(stored)
		return &msg.DHTRehomeResp{}, true, nil
	case *msg.DHTReplicaPutReq:
		s.cReplicaPuts.Add(int64(len(r.Items)))
		for _, f := range r.Floors {
			s.noteFloor(f, false)
		}
		for _, it := range r.Items {
			if s.belowFloor(it.Key) {
				continue
			}
			s.rep.Put(it.ID, it.Key, it.Value)
		}
		return &msg.Ack{}, true, nil
	case *msg.DHTDeleteReq:
		if s.refuses(r.Direct, r.ID) {
			return &msg.DHTDeleteResp{NotOwner: true}, true, nil
		}
		// Delete before raising the floor: the floor sweep would reclaim
		// this very slot and the response could no longer say whether it
		// existed. The sweep's other removals ride back in Swept.
		s.cDeletes.Add(1)
		deleted := s.st.Delete(r.ID)
		// Drop any successor copy of the slot too, or the Maintain
		// promotion path could resurrect it after an owner crash.
		s.rep.Delete(r.ID)
		resp := &msg.DHTDeleteResp{Deleted: deleted, Swept: s.noteFloor(r.Floor, true)}
		if r.Floor.Key != "" {
			resp.Arc = s.vouchedArc(r.ID)
		}
		s.deleteFromSucc([]ids.ID{r.ID}, r.Floor)
		return resp, true, nil
	case *msg.DHTReplicaDeleteReq:
		s.noteFloor(r.Floor, false)
		for _, id := range r.IDs {
			s.rep.Delete(id)
		}
		return &msg.Ack{}, true, nil
	case *msg.DHTGetReq:
		if s.refuses(r.Direct, r.ID) {
			return &msg.DHTGetResp{NotOwner: true}, true, nil
		}
		s.cGets.Add(1)
		resp, empty := s.get(ctx, r.ID)
		if empty && r.Wait > 0 {
			resp, empty = s.parkGet(ctx, r.ID, r.Wait)
		}
		if empty {
			s.cGetMisses.Add(1)
		}
		return resp, true, nil
	}
	return nil, false, nil
}

// get reads one slot. empty reports that this peer holds nothing for it
// — the only outcome a put can still change; a below-floor slot reads as
// not found but is reclaimed history, not empty.
func (s *Service) get(ctx context.Context, id ids.ID) (resp *msg.DHTGetResp, empty bool) {
	if e, ok := s.st.GetEntry(id); ok {
		if s.belowFloor(e.Key) {
			// A primary that slipped below an out-of-band floor (the
			// horizon arrived via a replica push while this slot's own
			// delete was lost): reclaim lazily rather than serve
			// checkpoint-covered history back to readers.
			s.reclaimPrimary(id, e.Key)
			return &msg.DHTGetResp{}, false
		}
		return &msg.DHTGetResp{Found: true, Value: e.Value}, false
	}
	// Takeover path: the previous owner of this slot crashed and we
	// hold its successor copy. The lookup routed here because routing
	// believes we are now responsible, so serve the copy; promote it
	// to primary when ownership is confirmed locally.
	if e, ok := s.rep.GetEntry(id); ok {
		if s.belowFloor(e.Key) {
			// A stale copy of a truncated slot that slipped past the
			// async replica delete: reclaim it instead of promoting.
			s.rep.Delete(id)
			return &msg.DHTGetResp{}, false
		}
		if s.rng.Owns(id) {
			s.cPromotions.Add(1)
			s.rec.Record(ctx, "dht-promote", e.Key, "read-takeover")
			s.st.Put(id, e.Key, e.Value)
			s.wakeParked(id)
			s.replicateToSucc([]msg.StateItem{{Service: ServiceName, Key: e.Key, ID: id, Value: e.Value}})
		}
		return &msg.DHTGetResp{Found: true, Value: e.Value}, false
	}
	return &msg.DHTGetResp{}, true
}

// parkedRead is one read parked on an empty slot; wake answers it early.
type parkedRead struct{ wake context.CancelFunc }

// parkGet parks a read of the empty slot id on the clock until a put
// fills the slot or wait passes, then reads the slot again. A log reader
// that has reached the end of the log thus learns of the next record the
// instant its first replica lands, instead of polling for it. The slot is
// re-checked under parkMu before parking: a put that landed after get's
// miss woke nobody, and every store path takes parkMu after storing, so
// it either shows here or finds this read registered. The lock is
// released before the park.
func (s *Service) parkGet(ctx context.Context, id ids.ID, wait time.Duration) (*msg.DHTGetResp, bool) {
	pctx, wake := s.clock.WithTimeout(ctx, wait)
	defer wake()
	me := &parkedRead{wake: wake}
	s.parkMu.Lock()
	if _, ok := s.st.Get(id); !ok {
		s.parked[id] = append(s.parked[id], me)
		s.parkMu.Unlock()
		_ = s.clock.Sleep(pctx, wait)
		s.parkMu.Lock()
		s.unparkLocked(id, me)
	}
	s.parkMu.Unlock()
	return s.get(ctx, id)
}

// unparkLocked drops a read that returned without being woken. Caller
// holds parkMu.
func (s *Service) unparkLocked(id ids.ID, me *parkedRead) {
	reads := s.parked[id]
	for i, p := range reads {
		if p == me {
			reads = append(reads[:i:i], reads[i+1:]...)
			break
		}
	}
	if len(reads) == 0 {
		delete(s.parked, id)
	} else {
		s.parked[id] = reads
	}
}

// wakeParked answers the reads parked on a primary slot that was just
// stored, in arrival order. Every path that stores a primary calls it;
// with nobody parked it is one map lookup.
func (s *Service) wakeParked(id ids.ID) {
	s.parkMu.Lock()
	reads := s.parked[id]
	delete(s.parked, id)
	s.parkMu.Unlock()
	for _, p := range reads {
		p.wake()
	}
}

// replicateToSucc pushes copies of stored slots to the immediate
// successor, asynchronously and best-effort: a missed copy is restored by
// the P2P-Log's read repair or the next put.
func (s *Service) replicateToSucc(items []msg.StateItem) {
	if len(items) == 0 {
		return
	}
	succ := s.rng.Successor()
	if succ.IsZero() || succ.ID == s.rng.Ref().ID {
		return
	}
	s.clock.Go(func() {
		ctx, cancel := s.clock.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = s.rng.Call(ctx, transport.Addr(succ.Addr), &msg.DHTReplicaPutReq{Items: items})
	})
}

// deleteFromSucc removes successor copies of deleted slots,
// asynchronously and best-effort: a survivor copy costs storage until
// the floor piggybacked on the next Maintain refresh reclaims it.
func (s *Service) deleteFromSucc(idsToDrop []ids.ID, floor msg.TruncFloor) {
	if len(idsToDrop) == 0 {
		return
	}
	succ := s.rng.Successor()
	if succ.IsZero() || succ.ID == s.rng.Ref().ID {
		return
	}
	s.clock.Go(func() {
		ctx, cancel := s.clock.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = s.rng.Call(ctx, transport.Addr(succ.Addr), &msg.DHTReplicaDeleteReq{IDs: idsToDrop, Floor: floor})
	})
}

// Maintain implements chord.Maintainer: it periodically re-pushes every
// primary slot to the current successor, repairing copy chains broken by
// churn (a departed successor takes its copies with it) and promoting
// owned replica-set entries whose primary holder vanished.
func (s *Service) Maintain(ctx context.Context) {
	s.deriveFloors(ctx)
	s.rehomeStranded(ctx)
	// Promote owned replica entries to primary (crash takeover without
	// waiting for a read). The truncation low-water mark gates promotion:
	// a copy of a reclaimed log slot or checkpoint that survived the
	// async replica delete is reclaimed here, not resurrected. The walk
	// reads names only; a value is copied just for the entry it promotes.
	for _, m := range s.rep.SnapshotMeta() {
		if s.belowFloor(m.Key) {
			s.rep.Delete(m.ID)
			continue
		}
		if s.rng.Owns(m.ID) {
			if _, ok := s.st.Get(m.ID); !ok {
				if e, ok := s.rep.GetEntry(m.ID); ok {
					s.cPromotions.Add(1)
					s.rec.Record(ctx, "dht-promote", e.Key, "maintain")
					s.st.Put(e.ID, e.Key, e.Value)
					s.wakeParked(e.ID)
				}
			}
			s.rep.Delete(m.ID)
		}
	}
	// Refresh the successor's copy of everything we serve, with our
	// truncation floors riding along: a successor that missed a replica
	// delete learns the horizon here and sweeps its own copies. The same
	// walk reclaims below-floor primaries — a stale copy this node
	// promoted while it transiently owned the range, before the floor
	// reached it, or its own slots under a floor learned out of band —
	// instead of re-replicating checkpoint-covered history onward; the
	// next delete carrying that floor counts them (reclaimPrimary).
	succ := s.rng.Successor()
	if succ.IsZero() || succ.ID == s.rng.Ref().ID {
		return
	}
	var items []msg.StateItem
	for _, e := range s.st.SnapshotAll() {
		if s.belowFloor(e.Key) {
			s.reclaimPrimary(e.ID, e.Key)
			continue
		}
		items = append(items, msg.StateItem{Service: ServiceName, Key: e.Key, ID: e.ID, Value: e.Value})
	}
	floors := s.floorSnapshot()
	if len(items) == 0 && len(floors) == 0 {
		return
	}
	cctx, cancel := s.clock.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	_, _ = s.rng.Call(cctx, transport.Addr(succ.Addr), &msg.DHTReplicaPutReq{Items: items, Floors: floors})
}

// rehomeBatch bounds how many routing consults (and hence owner
// batches) one Maintain pass spends on re-homing, keeping the tick
// cheap; the remainder goes next pass. The budget is per OWNER, not per
// slot: the snapshot is ring-ordered and successor(k) is constant over
// (consulted, owner.ID], so one FindSuccessor covers every following
// stranded slot inside that arc and the whole group travels in a single
// DHTRehomeReq.
const rehomeBatch = 16

// rehomeStranded migrates primaries this node no longer owns to their
// routed owner. A node whose predecessor was evicted transiently claims
// the whole ring (Owns over-claims on a zero predecessor), and puts
// routed through the healing window land on it; once the true
// predecessor is re-adopted those slots are stranded — the healed ring
// routes their keys elsewhere, so no read, refresh or promotion ever
// finds them again. Each pass consults routing once per stranded owner
// interval and bulk re-puts that interval's slots at the owner
// (first-write-wins: a write-once slot the owner already holds, or a
// fresher mutable record there, beats our stale copy), dropping local
// primaries and their successor copies once the owner has acknowledged.
func (s *Service) rehomeStranded(ctx context.Context) {
	self := s.rng.Ref()
	// Names first, values only for the stranded few: most ticks re-home
	// nothing, and copying every value to learn that is O(store bytes).
	// The values are still read before the first routing call, so what
	// is shipped is what the walk saw, as with a whole-store snapshot.
	var stranded []store.Entry
	for _, m := range s.st.SnapshotMeta() {
		if s.belowFloor(m.Key) || s.rng.Owns(m.ID) {
			continue
		}
		if e, ok := s.st.GetEntry(m.ID); ok {
			stranded = append(stranded, e)
		}
	}
	var dropped []ids.ID
	consults := 0
	for i := 0; i < len(stranded) && consults < rehomeBatch; {
		e := stranded[i]
		consults++
		owner, _, err := s.rng.FindSuccessor(ctx, e.ID)
		if err != nil || owner.IsZero() || owner.Addr == string(self.Addr) {
			// Routing still names this node (or cannot answer yet):
			// ownership is in flux, keep the primary and retry next pass.
			i++
			continue
		}
		// Everything on the arc (e.ID, owner.ID] routes to the same
		// owner, and the snapshot is ID-sorted, so extend the batch
		// through the following slots inside it. (owner.ID == e.ID would
		// degenerate to the full ring; a slot colliding with a node ID
		// gets its own singleton batch instead.)
		items := []msg.StateItem{{Service: ServiceName, Key: e.Key, ID: e.ID, Value: e.Value}}
		j := i + 1
		for owner.ID != e.ID && j < len(stranded) && ids.BetweenRightIncl(stranded[j].ID, e.ID, owner.ID) {
			n := stranded[j]
			items = append(items, msg.StateItem{Service: ServiceName, Key: n.Key, ID: n.ID, Value: n.Value})
			j++
		}
		cctx, cancel := s.clock.WithTimeout(ctx, 2*time.Second)
		resp, err := s.rng.Call(cctx, transport.Addr(owner.Addr), &msg.DHTRehomeReq{Items: items})
		cancel()
		if err == nil {
			if _, ok := resp.(*msg.DHTRehomeResp); ok {
				for _, it := range items {
					s.st.Delete(it.ID)
					dropped = append(dropped, it.ID)
				}
				s.cRehomes.Add(int64(len(items)))
				key := items[0].Key
				if dk, _, ok := ids.ParseLogSlotName(key); ok {
					key = dk
				}
				s.rec.Record(ctx, "dht-rehome", key,
					fmt.Sprintf("slots=%d owner=%s", len(items), owner.Addr))
			}
		}
		i = j
	}
	s.deleteFromSucc(dropped, msg.TruncFloor{})
}

// deriveFloors is the restart-durability pass for truncation floors.
// For each document key that appears in a locally stored log slot but
// has no recorded floor, it consults the hint and records the result as
// an out-of-band floor; a key that entered the hint cycle this way is
// then RE-consulted every DefaultFloorRecheck, so a checkpoint pointer
// that advances after the first consult still raises the floor (the old
// once-per-process consult left every later advance invisible until the
// next restart). Keys whose floor arrived through a truncation sweep
// never enter the cycle: the sweep channel that reached them keeps
// raising their floor under the engine's rate limit, which the hint
// must not bypass. No primary sweep happens here, so it can never race
// an in-flight truncation's delete accounting; below-floor primaries
// are reclaimed lazily by reads and the refresh walk, like every other
// out-of-band floor.
func (s *Service) deriveFloors(ctx context.Context) {
	if s.floorHint == nil {
		return
	}
	now := s.clock.Now()
	cand := make(map[string]bool)
	for _, st := range []*store.Store{s.st, s.rep} {
		for _, e := range st.SnapshotMeta() {
			key, _, ok := ids.ParseLogSlotName(e.Key)
			if !ok {
				continue
			}
			s.mu.Lock()
			_, hasFloor := s.floors[key]
			last, checked := s.floorCheckedAt[key]
			s.mu.Unlock()
			if (!checked && !hasFloor) || (checked && now.Sub(last) >= DefaultFloorRecheck) {
				cand[key] = true
			}
		}
	}
	keys := make([]string, 0, len(cand))
	for k := range cand {
		keys = append(keys, k)
	}
	// Sorted: the hint issues DHT reads, which draw from seeded latency
	// streams under deterministic simulation.
	sort.Strings(keys)
	for _, key := range keys {
		ts, ok := s.floorHint(ctx, key)
		if !ok {
			continue // source unreachable; retried next pass
		}
		s.mu.Lock()
		s.floorCheckedAt[key] = now
		s.mu.Unlock()
		if ts > 0 {
			s.cFloorDerived.Add(1)
			s.rec.Record(ctx, "dht-floor-derive", key, fmt.Sprintf("ts=%d", ts))
			s.noteFloor(msg.TruncFloor{Key: key, TS: ts}, false)
		}
	}
}

// ExportOutside implements chord.Service. Only primary slots transfer;
// the exporting node keeps nothing for them (the new owner re-replicates
// to its own successor on import).
func (s *Service) ExportOutside(newPred, self ids.ID) []msg.StateItem {
	return entriesToItems(s.st.ExtractOutside(newPred, self))
}

// ExportAll implements chord.Service.
func (s *Service) ExportAll() []msg.StateItem {
	items := entriesToItems(s.st.SnapshotAll())
	s.st.Clear()
	return items
}

// Import implements chord.Service: installs transferred slots as primary
// and pushes successor copies for them. Log slots and checkpoints below
// a known truncation floor are dropped — a handover from a peer that
// lagged the truncation sweep must not re-seed the reclaimed prefix.
func (s *Service) Import(items []msg.StateItem) {
	kept := items[:0]
	for _, it := range items {
		if s.belowFloor(it.Key) {
			continue
		}
		s.st.Put(it.ID, it.Key, it.Value)
		s.wakeParked(it.ID)
		kept = append(kept, it)
	}
	s.replicateToSucc(kept)
}

func entriesToItems(entries []store.Entry) []msg.StateItem {
	out := make([]msg.StateItem, 0, len(entries))
	for _, e := range entries {
		out = append(out, msg.StateItem{Service: ServiceName, Key: e.Key, ID: e.ID, Value: e.Value})
	}
	return out
}

// ---------------------------------------------------------------------------
// Client.

// ErrNoOwner is returned when the responsible peer cannot be reached after
// all retries.
var ErrNoOwner = errors.New("dht: responsible peer unreachable")

// ErrConflict reports a write-once slot already holding a different
// record. p2plog and checkpoint export it under their own names.
var ErrConflict = errors.New("dht: slot already holds a different record")

// Client routes DHT operations from any ring member. Operations retry
// with fresh lookups when the responsible peer fails mid-call, which is
// how P2P-LTR rides out churn.
type Client struct {
	ring     chord.Ring
	attempts int
	backoff  time.Duration
	clock    vclock.Clock

	counters  *metrics.Family
	cCalls    *metrics.Counter
	cRetries  *metrics.Counter
	cFailures *metrics.Counter
}

// NewClient returns a client bound to the local ring view. attempts
// bounds lookup+call retries (minimum 1); backoff separates them,
// waiting on clk.
func NewClient(ring chord.Ring, attempts int, backoff time.Duration, clk vclock.Clock) *Client {
	if attempts < 1 {
		attempts = 1
	}
	c := &Client{ring: ring, attempts: attempts, backoff: backoff, clock: clk,
		counters: metrics.NewFamily()}
	c.cCalls = c.counters.Counter("calls")
	c.cRetries = c.counters.Counter("retries")
	c.cFailures = c.counters.Counter("failures")
	return c
}

// Counters returns the client's routing metric family: calls (one per
// operation), retries (extra attempts after a failed lookup or call),
// failures (operations exhausting every attempt).
func (c *Client) Counters() *metrics.Family { return c.counters }

// call resolves successor(id) and invokes the request req builds on it,
// retrying with fresh lookups on unavailability. Each RPC is bounded by d
// (chord's CallTimeout if 0).
//
// When the ring view names the owner without a lookup (chord.Ring.Owner:
// the successor list spans the whole ring), the first pass sends there
// directly, marked Direct so the callee serves it only if it owns id. A
// NotOwner refusal or an unreachable guess moves on to the lookup passes;
// that first pass neither backs off nor counts as a retry. req builds a
// fresh request per pass rather than marking a shared one: a timed-out
// handler may still hold an earlier pass's request.
func (c *Client) call(ctx context.Context, id ids.ID, d time.Duration, req func(direct bool) msg.Message) (msg.Message, error) {
	c.cCalls.Add(1)
	owner, direct := c.ring.Owner(id)
	var lastErr error
	for walks := 0; walks < c.attempts; {
		if !direct {
			if walks > 0 {
				c.cRetries.Add(1)
				if c.backoff > 0 {
					if err := c.clock.Sleep(ctx, c.backoff); err != nil {
						return nil, err
					}
				}
			}
			walks++
			var err error
			if owner, _, err = c.ring.FindSuccessor(ctx, id); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err := c.send(ctx, owner, req(direct), d)
		switch {
		case err == nil && !notOwner(resp): // a walked request is never refused
			return resp, nil
		case err == nil:
			lastErr = fmt.Errorf("dht: guessed owner %s does not own %s", owner.Addr, id)
		case transport.IsUnavailable(err):
			lastErr = err
		default:
			return nil, err
		}
		direct = false
	}
	c.cFailures.Add(1)
	return nil, fmt.Errorf("%w: %v", ErrNoOwner, lastErr)
}

// send invokes req at owner, bounded by d (chord's CallTimeout if 0).
func (c *Client) send(ctx context.Context, owner msg.NodeRef, req msg.Message, d time.Duration) (msg.Message, error) {
	if d > 0 {
		return c.ring.CallWithTimeout(ctx, transport.Addr(owner.Addr), req, d)
	}
	return c.ring.Call(ctx, transport.Addr(owner.Addr), req)
}

// notOwner reports whether resp refuses a Direct request.
func notOwner(resp msg.Message) bool {
	switch r := resp.(type) {
	case *msg.DHTPutResp:
		return r.NotOwner
	case *msg.DHTGetResp:
		return r.NotOwner
	case *msg.DHTDeleteResp:
		return r.NotOwner
	}
	return false
}

// PutID stores value at ring position id. With ifAbsent the slot is
// write-once: stored=false reports an occupant with different content.
func (c *Client) PutID(ctx context.Context, id ids.ID, key string, value []byte, ifAbsent bool) (stored bool, existing []byte, err error) {
	resp, err := c.call(ctx, id, 0, func(direct bool) msg.Message {
		return &msg.DHTPutReq{ID: id, Key: key, Value: value, IfAbsent: ifAbsent, Direct: direct}
	})
	if err != nil {
		return false, nil, err
	}
	pr, ok := resp.(*msg.DHTPutResp)
	if !ok {
		return false, nil, fmt.Errorf("dht: unexpected response %T", resp)
	}
	return pr.Stored, pr.Existing, nil
}

// PutSlots writes enc to the ids.Replicas positions of slot in index
// order and returns how many hold it afterwards. It is the one write loop
// behind log publish, checkpoint publish and pointer write (the paper's
// Put(h1(key+ts),Patch) … Put(hn(key+ts),Patch)). An unreachable replica
// is skipped; the others provide availability, so at least one must
// accept. With ifAbsent the slots are write-once, and the store already
// acknowledges an occupant with identical bytes as stored; any other
// occupant is judged by same: nil counts the slot as holding the record,
// an error wrapping ErrConflict aborts the walk, any other error marks
// the replica unusable. A nil same makes every occupant a conflict.
func (c *Client) PutSlots(ctx context.Context, slot ids.Slot, enc []byte, ifAbsent bool, same func(occupant []byte) error) (stored int, err error) {
	var lastErr error
	for i := 0; i < ids.Replicas; i++ {
		ok, occupant, err := c.PutID(ctx, slot.Pos(i), slot.Name(i), enc, ifAbsent)
		if err == nil && !ok {
			err = ErrConflict
			if same != nil {
				err = same(occupant)
			}
			if errors.Is(err, ErrConflict) {
				return stored, fmt.Errorf("%s: %w", slot.Name(i), err)
			}
		}
		if err != nil {
			lastErr = err
			continue
		}
		stored++
	}
	if stored == 0 {
		return 0, fmt.Errorf("dht: put %v: no replica reachable: %w", slot, lastErr)
	}
	return stored, nil
}

// DeleteSlotID removes a P2P-Log slot as part of a truncation sweep of
// floorKey up to floorTS: the responsible peer records the low-water
// mark so no stale successor copy of the reclaimed prefix can ever be
// promoted back (the resurrection leak truncation otherwise never
// revisits), and removes every primary log slot of floorKey at or below
// floorTS and every checkpoint of floorKey below it. removed counts every
// primary log slot the call reclaimed — the addressed one plus the rest
// of that sweep; reclaimed checkpoints are not counted. arc is the
// responder's (predecessor, self] when it could vouch that no such slot
// is left on it (see msg.DHTDeleteResp.Arc), else empty.
func (c *Client) DeleteSlotID(ctx context.Context, id ids.ID, floorKey string, floorTS uint64) (removed int, arc ids.Arc, err error) {
	resp, err := c.call(ctx, id, 0, func(direct bool) msg.Message {
		return &msg.DHTDeleteReq{ID: id, Floor: msg.TruncFloor{Key: floorKey, TS: floorTS}, Direct: direct}
	})
	if err != nil {
		return 0, ids.Arc{}, err
	}
	dr, ok := resp.(*msg.DHTDeleteResp)
	if !ok {
		return 0, ids.Arc{}, fmt.Errorf("dht: unexpected response %T", resp)
	}
	removed = dr.Swept
	if dr.Deleted {
		removed++
	}
	return removed, dr.Arc, nil
}

// GetID fetches the value at ring position id.
func (c *Client) GetID(ctx context.Context, id ids.ID) ([]byte, bool, error) {
	return c.getID(ctx, id, 0)
}

// AwaitID is GetID parked at the owner: when the slot is empty the owner
// holds the read for up to wait and answers the moment a put fills the
// slot; found=false means nothing arrived in time. The RPC is bounded by
// twice wait — the park plus as long again for the hops, since chord's
// CallTimeout is a one-round-trip bound that would cut every park short.
func (c *Client) AwaitID(ctx context.Context, id ids.ID, wait time.Duration) ([]byte, bool, error) {
	return c.getID(ctx, id, wait)
}

func (c *Client) getID(ctx context.Context, id ids.ID, wait time.Duration) ([]byte, bool, error) {
	resp, err := c.call(ctx, id, 2*wait, func(direct bool) msg.Message {
		return &msg.DHTGetReq{ID: id, Wait: wait, Direct: direct}
	})
	if err != nil {
		return nil, false, err
	}
	gr, ok := resp.(*msg.DHTGetResp)
	if !ok {
		return nil, false, fmt.Errorf("dht: unexpected response %T", resp)
	}
	return gr.Value, gr.Found, nil
}

// Put stores value under the data hash of key.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	_, _, err := c.PutID(ctx, ids.HashString(key), key, value, false)
	return err
}

// Get fetches the value stored under key.
func (c *Client) Get(ctx context.Context, key string) ([]byte, bool, error) {
	return c.GetID(ctx, ids.HashString(key))
}

// Ring returns the ring view the client routes through.
func (c *Client) Ring() chord.Ring { return c.ring }
