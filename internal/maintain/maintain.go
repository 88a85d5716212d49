// Package maintain implements P2P-LTR's self-healing maintenance engine:
// per-key background anti-entropy the Master-key peer runs through the
// Chord maintenance tick, closing the liveness gaps the request path
// tolerates but never repairs.
//
// The checkpoint subsystem (internal/checkpoint) makes three best-effort
// promises that churn can silently break:
//
//  1. The boundary author produces each checkpoint. An author that dies
//     right after its boundary commit skips the snapshot for a whole
//     interval, so cold joins pay O(missed history) again.
//  2. Checkpoint slots are replicated at the |Hc| ring positions. The
//     read path falls back across replicas and tolerates holes silently,
//     so crashes permanently erode the replication degree.
//  3. Log truncation reclaims covered prefixes — but only when some
//     caller explicitly invokes it, so unattended deployments grow
//     Log-Peer storage without bound.
//
// Each Maintain pass the engine scans the keys this node currently
// masters (the KTS already serializes per-key decisions here, so acting
// from the master adds no new coordination) and, per key:
//
//   - detects checkpoint lag — last-ts at least one interval past the
//     latest-checkpoint pointer — and acts as the fallback producer: it
//     reconstructs the committed state at the missed boundary via a
//     maintenance replica pull, publishes the snapshot to the Hc slots
//     (write-once, so a late author and the fallback producer converge
//     on identical content) and advances the pointer;
//   - repairs under-replicated checkpoints by re-publishing missing Hc
//     replica slots, and re-writes pointer records that fell behind the
//     master's in-memory pointer (a failed WritePointer during announce);
//   - triggers rate-limited, fully-replication-gated log truncation, so
//     storage reclamation needs no explicit caller.
//
// Every action is idempotent and safe to lose: the engine only ever
// re-derives state from the authoritative write-once log and checkpoint
// slots, so a crashed pass costs time, never correctness.
package maintain

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/ids"
	"p2pltr/internal/kts"
	"p2pltr/internal/metrics"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// ServiceName identifies the engine among a node's mounted services.
const ServiceName = "maintain"

// DefaultTruncateEvery is the minimum spacing between truncation attempts
// per key when none is configured. Truncation walks the whole covered
// prefix, so it is the one maintenance action worth throttling well below
// the pass rate.
const DefaultTruncateEvery = 30 * time.Second

// DefaultRepairEvery is the minimum spacing between checkpoint-slot
// repair probes (and the pointer-record refresh they gate) per key in
// steady state. A probe reads every Hc replica slot plus the pointer
// records; running that at the full pass rate (every maintenance tick per
// mastered key) is background read load with no benefit, the same way
// unthrottled sweeps were before the truncation rate limiter. A pass that
// fallback-produced a checkpoint always repairs immediately, so healing
// is never delayed — only re-verification of already-healthy keys is.
// While a probe is skipped, truncation is gated on the previous probe's
// replication verdict; the stale-verdict window this opens is at most
// DefaultRepairEvery and risks only the stronger-than-required
// full-replication margin, never the pointer's ≥1-replica retrievability
// invariant.
const DefaultRepairEvery = 10 * time.Second

// DefaultMaxCatchupIntervals caps how many missed checkpoint boundaries
// the fallback producer publishes in one pass. The fallback pulls replay
// the log synchronously on the shared chord maintenance goroutine —
// without the cap, the first pass over a deep no-checkpoint history
// replays it all inside one tick and stalls every other service's
// Maintain. Every intermediate boundary is still published on the way
// (history navigation needs the complete chain at and above the
// truncation floor, which reclaims the checkpoints below it); the cap
// only decides how many of them one tick may produce before resuming at
// the next.
const DefaultMaxCatchupIntervals = 4

// DefaultDiscoverEvery is the minimum spacing between DHT-walk discovery
// passes. Discovery probes each absent key with one last_ts RPC, so it
// runs well below the pass rate.
const DefaultDiscoverEvery = 30 * time.Second

// Config tunes the engine.
type Config struct {
	// TruncateEvery is the minimum spacing between truncation attempts
	// per key (DefaultTruncateEvery if zero). A period shorter than the
	// node's shared maintenance tick also sets the engine's pass rate,
	// and then a tenth of it is forgiven as scheduling jitter (see
	// MaintainEvery).
	TruncateEvery time.Duration
	// KeepIntervals is a safety margin for automatic truncation: the
	// newest KeepIntervals checkpoint intervals below the pointer are NOT
	// reclaimed, so an editor with tentative edits that lags by less
	// than the margin can still retrieve the patches OT needs instead of
	// hitting ErrTruncated (or a lossy rebase) one maintenance tick
	// after a boundary. 0 reclaims everything the pointer covers —
	// maximum storage win, maximum reliance on the rebase policy.
	KeepIntervals int
	// Now overrides the engine's clock; tests use it to drive the
	// truncation, repair and discovery rate limiters deterministically.
	// Defaults to vclock.System.Now — core.Peer always wires its own
	// clock in, so the default only reaches standalone constructions,
	// which must still not read the OS clock directly.
	Now func() time.Time
}

// Horizon is the highest log timestamp truncation may reclaim under the
// checkpoint pointer ptr: ptr less the KeepIntervals margin. It is 0,
// reclaiming nothing, when the margin covers ptr or cannot be computed
// (KeepIntervals set but interval unknown): truncating anyway would
// reclaim history the operator asked to keep.
func (c Config) Horizon(ptr, interval uint64) uint64 {
	if c.KeepIntervals <= 0 {
		return ptr
	}
	margin := uint64(c.KeepIntervals) * interval
	if margin == 0 || ptr <= margin {
		return 0
	}
	return ptr - margin
}

// Puller reconstructs committed document state for the fallback producer
// and names the documents this peer holds slots of. core.Peer adapts its
// user-replica pull path (checkpoint bootstrap plus log tail) and its DHT
// stores to this.
type Puller interface {
	// SnapshotAt returns the committed lines of key at exactly ts.
	SnapshotAt(ctx context.Context, key string, ts uint64) ([]string, error)
	// Discover enumerates document keys evidenced by this peer's locally
	// stored DHT slots (log records, checkpoint snapshots, pointer
	// records). The engine periodically probes every discovered key the
	// KTS scan did not visit and re-establishes its timestamp entry chain
	// via kts.EnsureKey. This is the recovery path for total entry-chain
	// loss: when a key's master and successor crash together, no
	// surviving node holds an entry, so the per-key scan would never
	// visit the key again even though its log and checkpoint slots
	// persist.
	Discover() []string
}

// Engine is the per-peer maintenance service. It implements
// chord.Service (stateless: nothing to hand over) and chord.Maintainer,
// which is how the node drives it.
type Engine struct {
	cfg Config
	// interval is the checkpoint period in committed patches the lag
	// detector assumes (0 disables fallback production; repair and
	// truncation still run, off the checkpoint pointer this node's KTS
	// entry knows — i.e. checkpoints other nodes announced).
	interval uint64
	kts      *kts.Service
	store    *checkpoint.Store
	log      *p2plog.Log
	pull     Puller

	mu          sync.Mutex
	truncatedTo map[string]uint64
	lastTrunc   map[string]time.Time
	lastRepair  map[string]time.Time
	// lastFull caches the newest repair probe's replication verdict so
	// throttled passes can still gate truncation on it.
	lastFull map[string]bool
	// notMaster counts consecutive passes a tracked key was observed
	// unowned; its bookkeeping is dropped only after several, so a
	// one-pass Owns() flap during stabilization does not reset the
	// truncation low-water mark (a reset costs a full O(pointer)
	// re-sweep of no-op deletes).
	notMaster map[string]int
	// lastDiscover rate-limits the DHT-walk discovery pass.
	lastDiscover time.Time
	// paced is set when the engine runs on its own ticker, every
	// TruncateEvery (see MaintainEvery).
	paced bool

	counters *metrics.Family
	// rec records maintenance-lifecycle events (fallback
	// checkpoint production, slot repair, truncation) into the peer's
	// flight recorder; nil is a valid no-op recorder.
	rec *trace.Recorder
}

// dropAfterMisses is how many consecutive not-master passes evict a
// key's throttle state.
const dropAfterMisses = 8

// NewEngine wires a maintenance engine over the given subsystems, for a
// checkpoint period of interval committed patches. rec receives the
// maintenance-lifecycle events (nil = off).
func NewEngine(cfg Config, interval uint64, ts *kts.Service, store *checkpoint.Store, log *p2plog.Log, pull Puller, rec *trace.Recorder) *Engine {
	if cfg.TruncateEvery <= 0 {
		cfg.TruncateEvery = DefaultTruncateEvery
	}
	if cfg.Now == nil {
		cfg.Now = vclock.System.Now
	}
	e := &Engine{
		cfg:         cfg,
		interval:    interval,
		kts:         ts,
		store:       store,
		log:         log,
		pull:        pull,
		truncatedTo: make(map[string]uint64),
		lastTrunc:   make(map[string]time.Time),
		lastRepair:  make(map[string]time.Time),
		lastFull:    make(map[string]bool),
		notMaster:   make(map[string]int),
		counters:    metrics.NewFamily(),
		rec:         rec,
	}
	// Eagerly create every member the engine ever bumps: a counter that
	// exists only after its first use is invisible to registry snapshots
	// (and to /metrics) on an idle or freshly started peer, which makes
	// dashboards and the registry presence test flap on timing.
	for _, name := range []string{
		"passes", "fallback-checkpoints", "slots-repaired",
		"pointer-refreshes", "truncations", "slots-truncated",
		"truncations-ratelimited", "repairs-skipped", "keys-discovered",
		"errors",
	} {
		e.counters.Counter(name)
	}
	return e
}

// Counters exposes the engine's action counter family: passes,
// fallback-checkpoints, slots-repaired, pointer-refreshes, truncations,
// slots-truncated, truncations-ratelimited, repairs-skipped,
// keys-discovered, errors.
func (e *Engine) Counters() *metrics.Family { return e.counters }

// Name implements chord.Service.
func (e *Engine) Name() string { return ServiceName }

// HandleRPC implements chord.Service; the engine serves no RPCs.
func (e *Engine) HandleRPC(context.Context, transport.Addr, msg.Message) (msg.Message, bool, error) {
	return nil, false, nil
}

// ExportOutside implements chord.Service. Maintenance state is advisory
// (re-derivable from the DHT), so nothing transfers on membership change.
func (e *Engine) ExportOutside(newPred, self ids.ID) []msg.StateItem { return nil }

// ExportAll implements chord.Service.
func (e *Engine) ExportAll() []msg.StateItem { return nil }

// Import implements chord.Service.
func (e *Engine) Import([]msg.StateItem) {}

// MaintainEvery implements chord.PacedMaintainer. A TruncateEvery
// shorter than the node's shared maintenance tick is honoured rather
// than stretched to the tick (the store would otherwise hold a tick's
// worth of history, not a period's): the engine asks for a pass of its
// own every TruncateEvery. A longer one rides the shared tick.
func (e *Engine) MaintainEvery(shared time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.paced = e.cfg.TruncateEvery < shared
	if !e.paced {
		return 0
	}
	return e.cfg.TruncateEvery
}

// Maintain implements chord.Maintainer: one anti-entropy pass over every
// key this node currently masters.
func (e *Engine) Maintain(ctx context.Context) {
	states := e.kts.KeyStates()
	e.counters.Counter("passes").Add(1)
	mastered := make(map[string]bool, len(states))
	for _, st := range states {
		if !st.Master {
			continue
		}
		mastered[st.Key] = true
		e.maintainKey(ctx, st)
	}
	e.discover(ctx, states)
	// Drop throttle state for keys whose mastership durably moved away,
	// so a long-lived node's bookkeeping stays bounded by the keys it
	// serves — but only after several consecutive misses, tolerating
	// Owns() flapping for a pass while the ring stabilizes.
	e.mu.Lock()
	tracked := make(map[string]bool, len(e.truncatedTo)+len(e.lastTrunc)+len(e.lastRepair))
	for key := range e.truncatedTo {
		tracked[key] = true
	}
	for key := range e.lastTrunc {
		tracked[key] = true
	}
	for key := range e.lastRepair {
		tracked[key] = true
	}
	for key := range tracked {
		if mastered[key] {
			delete(e.notMaster, key)
			continue
		}
		e.notMaster[key]++
		if e.notMaster[key] >= dropAfterMisses {
			delete(e.lastTrunc, key)
			delete(e.truncatedTo, key)
			delete(e.lastRepair, key)
			delete(e.lastFull, key)
			delete(e.notMaster, key)
		}
	}
	e.mu.Unlock()
}

// discover is the DHT-walk completeness pass: probe every key named by a
// locally stored slot but absent from the KTS scan, so a key whose whole
// entry chain died with its master and successor is re-established from
// the surviving write-once record. Probes run in sorted key order (the
// RPCs draw from seeded latency streams under deterministic simulation).
func (e *Engine) discover(ctx context.Context, states []kts.KeyState) {
	now := e.cfg.Now()
	e.mu.Lock()
	if !e.lastDiscover.IsZero() && now.Sub(e.lastDiscover) < DefaultDiscoverEvery {
		e.mu.Unlock()
		return
	}
	e.lastDiscover = now
	e.mu.Unlock()
	known := make(map[string]bool, len(states))
	for _, st := range states {
		known[st.Key] = true
	}
	keys := e.pull.Discover()
	sort.Strings(keys)
	for _, key := range keys {
		if key == "" || known[key] {
			continue
		}
		created, err := e.kts.EnsureKey(ctx, key)
		if err != nil {
			e.counters.Counter("errors").Add(1)
			continue
		}
		if created {
			e.counters.Counter("keys-discovered").Add(1)
		}
	}
}

func (e *Engine) maintainKey(ctx context.Context, st kts.KeyState) {
	// (1) Fallback checkpoint production. The local pointer may lag the
	// DHT record (unsynced replica entry after failover), so consult the
	// published pointer before committing to an expensive reconstruction.
	produced := false
	if e.interval > 0 && st.LastTS >= e.interval {
		boundary := st.LastTS - st.LastTS%e.interval
		if boundary > st.CkptTS {
			if ptr, err := e.store.LatestPointer(ctx, st.Key); err == nil && ptr > st.CkptTS {
				st.CkptTS = ptr
			}
		}
		if boundary > st.CkptTS {
			// Close the gap one boundary at a time, publishing EVERY
			// intermediate boundary on the way: history navigation (time
			// travel, audit) needs the complete boundary chain at and
			// above the truncation floor, not every
			// DefaultMaxCatchupIntervals-th link; the DHT reclaims the
			// boundaries the floor passes later. The cap still bounds the
			// pass — at most DefaultMaxCatchupIntervals boundary
			// productions per tick, resuming next tick — so a deep
			// no-checkpoint history never replays in full on the shared
			// chord maintenance goroutine. Each production pulls from the
			// boundary just published, so a pass costs O(published
			// boundaries × interval), same total replay as one capped jump.
			steps := 0
			for b := st.CkptTS - st.CkptTS%e.interval + e.interval; b <= boundary; b += e.interval {
				if b <= st.CkptTS {
					continue // a racing author already covered this boundary
				}
				ts, ok := e.produce(ctx, st.Key, b)
				if !ok {
					break
				}
				if ts > st.CkptTS {
					st.CkptTS = ts
				}
				produced = true
				if steps++; steps == DefaultMaxCatchupIntervals {
					break
				}
			}
		}
	}

	// (2) Checkpoint replica and pointer-record repair, throttled per key
	// in steady state: re-verifying a healthy checkpoint every pass is
	// pure background read load. A pass that just produced runs the
	// repair unconditionally — the fresh slots deserve a verdict.
	if st.CkptTS == 0 {
		return
	}
	now := e.cfg.Now()
	e.mu.Lock()
	last, haveLast := e.lastRepair[st.Key]
	full := e.lastFull[st.Key]
	probe := produced || !haveLast || now.Sub(last) >= DefaultRepairEvery
	if probe {
		e.lastRepair[st.Key] = now
	}
	e.mu.Unlock()
	if probe {
		repaired, f, err := e.store.Repair(ctx, st.Key, st.CkptTS)
		if err != nil {
			e.counters.Counter("errors").Add(1)
			full = false
		} else {
			full = f
			if repaired > 0 {
				e.counters.Counter("slots-repaired").Add(int64(repaired))
				e.rec.Record(ctx, "ckpt-repair", st.Key,
					"ts="+strconv.FormatUint(st.CkptTS, 10)+" slots="+strconv.Itoa(repaired))
			}
			// Refresh pointer records that fell behind the master's
			// in-memory pointer (a failed WritePointer during announce).
			// Only with Repair's proof that the snapshot is readable: the
			// pointer is a promise that bootstrap will succeed, and
			// re-publishing it for a checkpoint whose every slot is gone
			// would break the retrievability invariant the announce path
			// gates on.
			if ptr, perr := e.store.LatestPointer(ctx, st.Key); perr == nil && ptr < st.CkptTS {
				if e.store.WritePointer(ctx, st.Key, st.CkptTS) == nil {
					e.counters.Counter("pointer-refreshes").Add(1)
				}
			}
		}
		e.mu.Lock()
		e.lastFull[st.Key] = full
		e.mu.Unlock()
	} else {
		e.counters.Counter("repairs-skipped").Add(1)
	}

	// (3) Rate-limited truncation, gated on the newest probe's
	// replication verdict. This is the only truncation path: nothing
	// else calls p2plog.Log.TruncateTo outside tests.
	if full {
		e.maybeTruncate(ctx, st)
	}
}

// produce closes a detected checkpoint gap: reconstruct the committed
// state at the missed boundary, publish it write-once, and announce it.
// Losing the idempotence race to a late author is success, not failure —
// slots are write-once and committed state at a timestamp is
// deterministic, so both producers publish identical bytes and the
// announce simply reports whoever advanced the pointer first.
func (e *Engine) produce(ctx context.Context, key string, boundary uint64) (uint64, bool) {
	lines, err := e.pull.SnapshotAt(ctx, key, boundary)
	if err != nil {
		e.counters.Counter("errors").Add(1)
		return 0, false
	}
	if _, err := e.store.Publish(ctx, checkpoint.Checkpoint{Key: key, TS: boundary, Lines: lines}); err != nil {
		e.counters.Counter("errors").Add(1)
		return 0, false
	}
	accepted, ckptTS, err := e.kts.Announce(ctx, key, boundary)
	if err != nil {
		e.counters.Counter("errors").Add(1)
		return 0, false
	}
	if !accepted {
		return ckptTS, ckptTS >= boundary
	}
	e.counters.Counter("fallback-checkpoints").Add(1)
	e.rec.Record(ctx, "ckpt-fallback", key, "ts="+strconv.FormatUint(boundary, 10))
	return boundary, true
}

// maybeTruncate reclaims the log prefix covered by st.CkptTS, which the
// caller has just verified fully replicated. The low-water mark keeps
// each sweep O(new history): everything at or below the previous
// truncation point is already gone.
func (e *Engine) maybeTruncate(ctx context.Context, st kts.KeyState) {
	// Hold back the configured safety margin; the checkpoint at
	// st.CkptTS covers any shorter prefix, so the gate still stands. A
	// zero horizon reclaims nothing: the check below returns.
	target := e.cfg.Horizon(st.CkptTS, e.interval)
	now := e.cfg.Now()
	e.mu.Lock()
	after := e.truncatedTo[st.Key]
	if target <= after {
		e.mu.Unlock()
		return // the covered prefix is already reclaimed
	}
	window := e.cfg.TruncateEvery
	if e.paced {
		// Passes come every TruncateEvery and land a little early or
		// late; refusing the early ones would halve the truncation
		// rate, so a tenth of a period is forgiven. On the shared tick
		// the next pass is only a fraction of the period away.
		window -= window / 10
	}
	if last, ok := e.lastTrunc[st.Key]; ok && now.Sub(last) < window {
		e.mu.Unlock()
		e.counters.Counter("truncations-ratelimited").Add(1)
		return
	}
	e.lastTrunc[st.Key] = now
	e.mu.Unlock()

	// TruncateTo also declares target the key's truncation low-water mark
	// on every contacted Log-Peer, which is what reclaims replicas that
	// churn smuggled past an earlier sweep's async copy deletes — this
	// engine's own horizon (after) makes each sweep O(new history), so it
	// would never revisit them.
	deleted, err := e.log.TruncateTo(ctx, st.Key, after, target)
	if err != nil {
		e.counters.Counter("errors").Add(1)
		return
	}
	e.mu.Lock()
	if target > e.truncatedTo[st.Key] {
		e.truncatedTo[st.Key] = target
	}
	e.mu.Unlock()
	e.counters.Counter("truncations").Add(1)
	e.counters.Counter("slots-truncated").Add(int64(deleted))
	e.rec.Record(ctx, "log-truncate", st.Key,
		"to="+strconv.FormatUint(target, 10)+" slots="+strconv.Itoa(deleted))
}
