// Package gateway is the multi-tenant serving front of P2P-LTR: one
// client-facing process multiplexing many documents and many clients
// over a single ring peer.
//
// It layers four mechanisms over core:
//
//   - One writer per (gateway, document), batching per tick. Every
//     editor a gateway opens on a document is the same writer: one
//     replica, one queue, one goroutine. Editors enqueue line edits at
//     any rate; the writer drains the queue once per BatchTick and
//     publishes ONE validated patch per tick, so the KTS master sees at
//     most one validation in flight per gateway and document — however
//     many clients edit it — instead of a convoy of contenders racing
//     each other to the next timestamp.
//
//   - Read-only follower replicas. Each document a gateway serves has
//     one feed goroutine that tails the committed P2P-Log (bootstrapping
//     from the newest checkpoint) and publishes an immutable snapshot.
//     A feed cycle reads in windows that double with what the cycle has
//     found (1, 1, 2, 4, 8 records) and publishes after every window, so
//     a backlog of N costs ~log2 N round trips and shows as it shrinks.
//     At the end of the log the feed does not poll: it parks a read at
//     the next record's first Log-Peer, which answers the moment the
//     master publishes there. Followers read the snapshot in-process: a
//     follower read NEVER enters the OT/validation path and NEVER
//     contacts the KTS master — viewers are free no matter how many
//     watch a hot document.
//
//   - One log reader per (gateway, document). The feed and the writer
//     of a document read its log through one tail (tail.go): a
//     write-once ring of the newest 8 committed records, filled by
//     whoever reads a record first, by the feed's parked read and by
//     every master ack, plus the writer's reads in flight, which later
//     readers await instead of repeating. The gateway lends it to core
//     through the same hook as the route cache (core.Peer.SetFront).
//
//   - Route and checkpoint-pointer caches. The gateway memoizes the
//     Master-key route per document (installed into the host peer via
//     core.Peer.SetFront) and the latest-checkpoint pointer per
//     document, so a cold read costs O(1) slot fetches instead of an
//     O(log N) ring lookup per hop. Route entries are invalidated
//     eagerly when chord evicts the routed-to peer (via
//     chord.Node.AddEvictObserver) and lazily by the NotMaster verdict
//     every master RPC carries.
//
// Determinism: the gateway holds no plain lock across a clock park.
// Feed state is mutated only by the feed's own goroutine; the published
// snapshot, the tails, the writer queues and all maps are guarded by
// plain mutexes whose critical sections never sleep. The one wait in the
// package — for a log record somebody else is reading — is on a
// vclock.Mutex, which queues under the scheduler, and the feed's parked
// read parks on the clock at the Log-Peer, so the package runs
// bitwise-deterministically under vclock.Virtual.
package gateway

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/metrics"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/patch"
	"p2pltr/internal/trace"
	"p2pltr/internal/vclock"
)

// Config tunes one gateway.
type Config struct {
	// BatchTick is the multiplexing period: each document's writer
	// commits its queued edits as one patch per tick. It is not a feed
	// cadence: a feed waits one tick only before its first read and after
	// a failed read or park. Default 250ms.
	BatchTick time.Duration
	// ProbeIdle bounds one parked read: a feed at the end of the log
	// waits at most this long at the next record's first Log-Peer, then
	// re-reads the log and re-checks the checkpoint pointer before it
	// parks again. It is therefore also the longest a follower lags when
	// that Log-Peer missed the publish. Default 2s.
	ProbeIdle time.Duration
	// OnCommit, when non-nil, observes every batched commit, once per
	// granted timestamp: the document key, the validated timestamp, and
	// the latency from the first enqueue of the batch to the master's
	// ack.
	OnCommit func(doc string, ts uint64, latency time.Duration)
	// OnDeliver, when non-nil, observes every snapshot the feed
	// publishes: the document key and the newest committed timestamp
	// integrated into it.
	OnDeliver func(doc string, ts uint64)
}

func (c Config) withDefaults() Config {
	if c.BatchTick <= 0 {
		c.BatchTick = 250 * time.Millisecond
	}
	if c.ProbeIdle <= 0 {
		c.ProbeIdle = 2 * time.Second
	}
	return c
}

// fetchTimeout bounds one feed fetch (log record, checkpoint, pointer
// read).
const fetchTimeout = 10 * time.Second

// Gateway multiplexes sessions over one host peer. Create with New,
// shut down with Close.
type Gateway struct {
	peer   *core.Peer
	clk    vclock.Clock
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards the maps and caches below. Plain mutex: critical
	// sections only touch memory, never the clock or the network.
	mu       sync.Mutex
	feeds    map[string]*feed
	writers  map[string]*Editor
	sessions map[string]*Session
	routes   map[string]msg.NodeRef
	ptrTS    map[string]uint64
	closed   bool

	counters *metrics.Family
	// batchSizes records acked ops per batched commit; feedGap records
	// the time between consecutive snapshot publishes of a feed.
	batchSizes *metrics.Histogram
	feedGap    *metrics.Histogram
}

// New mounts a gateway on peer: it installs itself as the peer's
// serving front (route cache and log tail) and registers an eviction
// observer so routes through a dead peer die with it.
func New(peer *core.Peer, cfg Config) *Gateway {
	clk := peer.Clock()
	ctx, cancel := clk.WithCancel(context.Background())
	g := &Gateway{
		peer:     peer,
		clk:      clk,
		cfg:      cfg.withDefaults(),
		ctx:      ctx,
		cancel:   cancel,
		feeds:    make(map[string]*feed),
		writers:  make(map[string]*Editor),
		sessions: make(map[string]*Session),
		routes:   make(map[string]msg.NodeRef),
		ptrTS:    make(map[string]uint64),
		counters: metrics.NewFamily(),
		batchSizes: metrics.NewValueHistogram(
			1, 2, 4, 8, 16, 32, 64, 128),
		feedGap: metrics.NewBucketedHistogram(
			50*time.Millisecond, 100*time.Millisecond, 250*time.Millisecond,
			500*time.Millisecond, time.Second, 2*time.Second, 5*time.Second,
			10*time.Second, 30*time.Second),
	}
	peer.SetFront(g)
	peer.Node.AddEvictObserver(g.invalidateAddr)
	return g
}

// Peer returns the host ring peer.
func (g *Gateway) Peer() *core.Peer { return g.peer }

// Counters exposes the gateway's metric family: editors (writers, one
// per document edited here), commits, batched-ops, commit-errors, feeds,
// feed-errors, followers, follower-reads,
// follower-bootstraps, route-hits, route-misses, route-invalidations,
// ptr-cache-hits, ptr-cache-misses, tail-hits (log records served from a
// tail's ring), tail-misses (log records fetched from the DHT),
// tail-conflicts (two patches seen at one timestamp).
func (g *Gateway) Counters() *metrics.Family { return g.counters }

// RegisterMetrics exports the gateway's counters and histograms into reg
// under the p2pltr_gateway prefix.
func (g *Gateway) RegisterMetrics(reg *metrics.Registry) {
	reg.AddFamily("p2pltr_gateway", g.counters)
	reg.AddHistogram("p2pltr_gateway_batch_size", g.batchSizes)
	reg.AddHistogram("p2pltr_gateway_feed_publish_gap_seconds", g.feedGap)
}

// Close stops every editor and feed goroutine and uninstalls the
// serving front. Idempotent.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	g.cancel()
	g.peer.SetFront(nil)
}

// ---------------------------------------------------------------------------
// The serving front (implements core.Front): route cache and log tail;
// and the pointer cache.

// Lookup returns the memoized Master-key route for a document.
func (g *Gateway) Lookup(key string) (msg.NodeRef, bool) {
	g.mu.Lock()
	ref, ok := g.routes[key]
	g.mu.Unlock()
	if ok {
		g.counters.Counter("route-hits").Add(1)
	} else {
		g.counters.Counter("route-misses").Add(1)
	}
	return ref, ok
}

// Store memoizes the master that just answered authoritatively.
func (g *Gateway) Store(key string, master msg.NodeRef) {
	g.mu.Lock()
	g.routes[key] = master
	g.mu.Unlock()
}

// Drop invalidates one document's route (stale or failed).
func (g *Gateway) Drop(key string) {
	g.mu.Lock()
	delete(g.routes, key)
	g.mu.Unlock()
}

// invalidateAddr drops every route through a peer chord just evicted.
// Runs synchronously on the evicting goroutine: memory only, no parks.
func (g *Gateway) invalidateAddr(dead msg.NodeRef) {
	g.mu.Lock()
	n := int64(0)
	for key, ref := range g.routes {
		if ref.Addr == dead.Addr {
			delete(g.routes, key)
			n++
		}
	}
	g.mu.Unlock()
	if n > 0 {
		g.counters.Counter("route-invalidations").Add(n)
	}
}

// FetchRange reads (from, to] of a document's log for a replica on the
// host peer: through the document's tail when this gateway serves it,
// straight from the log otherwise.
func (g *Gateway) FetchRange(ctx context.Context, key string, from, to uint64) ([]p2plog.Record, error) {
	if f := g.servedFeed(key); f != nil {
		return f.tail.fetchRange(ctx, from, to, true)
	}
	return g.peer.Log.FetchRange(ctx, key, from, to)
}

// Committed files a record the master just acked to a replica on the
// host peer, so the feed does not fetch it.
func (g *Gateway) Committed(rec p2plog.Record) {
	if f := g.servedFeed(rec.Key); f != nil {
		f.tail.insert(g.ctx, rec)
	}
}

func (g *Gateway) servedFeed(key string) *feed {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.feeds[key]
}

// notePtr records a checkpoint pointer learned from a master ack or a
// pointer read; the cache is monotone.
func (g *Gateway) notePtr(doc string, ts uint64) {
	if ts == 0 {
		return
	}
	g.mu.Lock()
	if ts > g.ptrTS[doc] {
		g.ptrTS[doc] = ts
	}
	g.mu.Unlock()
}

// cachedPtr returns the cached latest-checkpoint timestamp for doc.
func (g *Gateway) cachedPtr(doc string) (uint64, bool) {
	g.mu.Lock()
	ts, ok := g.ptrTS[doc]
	g.mu.Unlock()
	return ts, ok && ts > 0
}

// ---------------------------------------------------------------------------
// Sessions.

// Session is one client connection: a named scope under which the
// client opens editors and followers on any number of documents.
type Session struct {
	g  *Gateway
	id string
}

// Session returns the session named id, creating it on first use.
func (g *Gateway) Session(id string) *Session {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sessions[id]
	if !ok {
		s = &Session{g: g, id: id}
		g.sessions[id] = s
	}
	return s
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// ---------------------------------------------------------------------------
// Editors: write multiplexing.

// Editor is the writer of one document on a gateway, shared by every
// session that edits it there. Enqueue buffers line insertions; the
// writer's goroutine drains the buffer once per BatchTick and commits it
// as a single validated patch.
type Editor struct {
	g   *Gateway
	doc string
	rep *core.Replica

	mu      sync.Mutex
	pending []string
	oldest  time.Time // enqueue time of the oldest pending line
	err     error     // last commit error
	commits int64
}

// Editor returns the gateway's writer of doc, creating it on the first
// call, which names its site: site must be unique among all writers of
// the document (it is the OT author identity). Later calls, from any
// session, return the same writer and ignore their site — their lines
// join its queue and commit under its identity, so the gateway never
// races itself to the document's next timestamp.
func (s *Session) Editor(doc, site string) *Editor {
	g := s.g
	g.feedFor(doc) // an edited document is a served one: its replica reads through its tail
	g.mu.Lock()
	e, ok := g.writers[doc]
	if !ok {
		e = &Editor{g: g, doc: doc, rep: core.NewReplica(g.peer, doc, site)}
		g.writers[doc] = e
	}
	g.mu.Unlock()
	if !ok {
		g.counters.Counter("editors").Add(1)
		g.clk.Go(e.run)
	}
	return e
}

// Enqueue buffers one line insertion for the next tick's batch.
func (e *Editor) Enqueue(line string) {
	e.mu.Lock()
	if len(e.pending) == 0 {
		e.oldest = e.g.clk.Now()
	}
	e.pending = append(e.pending, line)
	e.mu.Unlock()
}

// Commits returns how many batched patches the writer has validated.
func (e *Editor) Commits() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commits
}

// Err returns the most recent commit error (nil when healthy).
func (e *Editor) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Replica exposes the writer's underlying document replica.
func (e *Editor) Replica() *core.Replica { return e.rep }

func (e *Editor) run() {
	g := e.g
	tr := g.peer.Tracer()
	// The cadence is a sleep loop, not a ticker: the next batch starts
	// one BatchTick after the previous commit returned, so a slow commit
	// pushes the following batches back instead of letting ticks pile up
	// behind it.
	//
	// Lines drained from the queue but not yet acked (a failed commit
	// leaves them as tentative ops on the replica): the next ticks retry
	// that tentative patch unchanged — same ops, same patch ID — until it
	// is acked, so a patch the master logged before the failure is
	// recognised in the log instead of committed a second time. Lines
	// enqueued meanwhile stay queued for the batch after it. The retried
	// lines count into batched-ops exactly once, on the ack.
	var (
		uncounted  int
		retryStart time.Time
	)
	for {
		if err := g.clk.Sleep(g.ctx, g.cfg.BatchTick); err != nil {
			return
		}
		var lines []string
		start := retryStart
		if uncounted == 0 {
			e.mu.Lock()
			lines, start = e.pending, e.oldest
			e.pending = nil
			e.mu.Unlock()
			if len(lines) == 0 {
				continue
			}
			// The whole batch becomes one tentative patch: append in order.
			for _, line := range lines {
				_ = e.rep.Insert(0, line)
			}
		}
		// The span starts at the oldest enqueue so queue-wait — the time
		// a line sat buffered before its batch tick — is a visible stage.
		sp := tr.StartAt("commit", e.doc, start)
		sp.MarkN("queue-wait", int64(len(lines)))
		ts, err := e.rep.Commit(trace.NewContext(g.ctx, sp))
		if err != nil {
			sp.EndErr(err)
			if g.ctx.Err() != nil {
				return
			}
			uncounted += len(lines)
			retryStart = start
			e.mu.Lock()
			e.err = err
			e.mu.Unlock()
			g.counters.Counter("commit-errors").Add(1)
			continue
		}
		sp.Mark("ack")
		sp.End()
		lat := g.clk.Since(start)
		e.mu.Lock()
		e.err = nil
		e.commits++
		e.mu.Unlock()
		g.counters.Counter("commits").Add(1)
		g.counters.Counter("batched-ops").Add(int64(len(lines) + uncounted))
		g.batchSizes.ObserveValue(int64(len(lines) + uncounted))
		uncounted, retryStart = 0, time.Time{}
		if g.cfg.OnCommit != nil {
			g.cfg.OnCommit(e.doc, ts, lat)
		}
		g.notePtr(e.doc, e.rep.KnownCheckpointTS())
	}
}

// ---------------------------------------------------------------------------
// Feeds and followers: the read path.

// feed tails one document's committed history for a gateway. Exactly
// one goroutine per (gateway, document) runs it; its state below stateMu
// is the published snapshot every follower reads.
type feed struct {
	g    *Gateway
	key  string
	tail *tail

	// stateMu guards the snapshot; never held across a park.
	stateMu sync.Mutex
	lines   []string
	ts      uint64

	// lastPub is touched only by the feed goroutine.
	lastPub time.Time
}

func (g *Gateway) feedFor(key string) *feed {
	g.mu.Lock()
	f, ok := g.feeds[key]
	if !ok {
		f = &feed{g: g, key: key, tail: newTail(g, key)}
		g.feeds[key] = f
		g.mu.Unlock()
		g.counters.Counter("feeds").Add(1)
		g.clk.Go(f.run)
		return f
	}
	g.mu.Unlock()
	return f
}

func (f *feed) publish(doc *patch.Document, ts uint64) {
	now := f.g.clk.Now()
	if !f.lastPub.IsZero() {
		f.g.feedGap.Observe(now.Sub(f.lastPub))
	}
	f.lastPub = now
	lines := doc.Lines()
	f.stateMu.Lock()
	f.lines = lines
	f.ts = ts
	f.stateMu.Unlock()
	if f.g.cfg.OnDeliver != nil {
		f.g.cfg.OnDeliver(f.key, ts)
	}
}

// run is the feed loop: each cycle reads the log tail in windows,
// integrates what a window found into the working document and publishes
// a fresh snapshot after every window. A window is as wide as the number
// of records the cycle has found so far, capped at tailSize — 1, 1, 2, 4,
// 8 — so a hit-then-miss cycle asks for one record at a time while a
// backlog of N costs ~log2 N round trips.
//
// A cycle that ends at the end of the log parks a read of the next record
// at its first Log-Peer for up to ProbeIdle instead of sleeping. A record
// that arrives there goes into the tail at once, where the writer's
// retrievals find it. Followers get it one read later: the feed reads it
// across every replica slot and re-publishes it to the ones still empty,
// as the polling feed did for every record, so a snapshot does not show
// a record that one Log-Peer crash could take back. The next cycle then
// starts at once and finds the record in the tail. An empty return starts
// a cycle too, which re-reads the log across every replica and re-checks
// the checkpoint pointer before parking again. Only a failed cycle or a
// failed park waits a BatchTick.
//
// The loop touches ONLY the DHT read path — the log through the tail and
// the checkpoint store — never the KTS master and never OT: committed
// patches apply verbatim in total order.
func (f *feed) run() {
	g := f.g
	tr := g.peer.Tracer()
	doc := patch.NewDocument("")
	var ts uint64
	booted := false
	wait := g.cfg.BatchTick // the first cycle starts one tick after the feed
	for {
		if err := g.clk.Sleep(g.ctx, wait); err != nil {
			return
		}
		cycleStart := g.clk.Now()
		if !booted {
			if d2, t2, ok := f.bootstrap(ts); ok {
				doc, ts = d2, t2
				f.publish(doc, ts)
			}
			booted = true
		}
		// Idle probe cycles produce no span: the deliver span exists only
		// when the cycle advanced the snapshot.
		var sp *trace.Span
		found := 0
		failed := false
		for {
			width := uint64(min(max(found, 1), tailSize))
			fctx, cancel := g.clk.WithTimeout(g.ctx, fetchTimeout)
			recs, err := f.tail.fetchRange(fctx, ts, ts+width, false)
			cancel()
			if g.ctx.Err() != nil {
				return
			}
			applied := 0
			for _, rec := range recs {
				cp, aerr := patch.Decode(rec.Patch)
				if aerr == nil {
					aerr = doc.ApplyPatch(cp)
				}
				if aerr != nil {
					err = aerr // not ErrMissing: counted below, ends the cycle
					break
				}
				ts = rec.TS
				applied++
			}
			if applied > 0 {
				found += applied
				if sp == nil {
					sp = tr.StartAt("deliver", f.key, cycleStart)
				}
				sp.MarkN("feed-fetch", int64(applied))
				f.publish(doc, ts)
				sp.Mark("feed-publish")
			}
			if err == nil {
				continue
			}
			if !errors.Is(err, p2plog.ErrMissing) {
				g.counters.Counter("feed-errors").Add(1)
				failed = true
				break
			}
			// The window's first hole: either the tail genuinely ends
			// here, or the prefix was truncated under a newer checkpoint.
			// The cached pointer tells them apart without a master call.
			if ptr, ok := g.cachedPtr(f.key); !ok || ptr <= ts {
				break
			}
			d2, t2, ok := f.bootstrap(ts)
			if !ok || t2 <= ts {
				break
			}
			doc, ts = d2, t2
			f.publish(doc, ts)
			found++
		}
		sp.End()
		wait = g.cfg.BatchTick
		if failed {
			continue
		}
		parked := g.clk.Now()
		rec, ok, err := g.peer.Log.Await(g.ctx, f.key, ts+1, g.cfg.ProbeIdle)
		switch {
		case g.ctx.Err() != nil:
			return
		case err != nil:
			g.counters.Counter("feed-errors").Add(1)
		case ok:
			// The writer may use the record now; followers after the read
			// across every replica slot.
			f.tail.insert(g.ctx, rec)
			fctx, cancel := g.clk.WithTimeout(g.ctx, fetchTimeout)
			_, _ = g.peer.Log.Fetch(fctx, f.key, rec.TS)
			cancel()
			wait = 0
		case g.clk.Since(parked) >= g.cfg.ProbeIdle:
			wait = 0
		}
		// An empty return before ProbeIdle is a Log-Peer that would not
		// park (the slot lies below its truncation floor): that waits a
		// BatchTick like an error, so the feed polls instead of spinning.
	}
}

// bootstrap jumps the feed to the newest checkpoint past cur, if one
// exists: cached pointer (or one pointer read) + one snapshot fetch,
// instead of replaying the whole log. ok is false when there is no
// checkpoint past cur or it was unreachable (the caller falls back to
// walking the log from cur).
func (f *feed) bootstrap(cur uint64) (*patch.Document, uint64, bool) {
	g := f.g
	ptr, cached := g.cachedPtr(f.key)
	if cached {
		g.counters.Counter("ptr-cache-hits").Add(1)
	} else {
		g.counters.Counter("ptr-cache-misses").Add(1)
		fctx, cancel := g.clk.WithTimeout(g.ctx, fetchTimeout)
		p, err := g.peer.Ckpt.LatestPointer(fctx, f.key)
		cancel()
		if err != nil {
			g.counters.Counter("feed-errors").Add(1)
			return nil, 0, false
		}
		g.notePtr(f.key, p)
		ptr = p
	}
	if ptr <= cur {
		return nil, 0, false
	}
	fctx, cancel := g.clk.WithTimeout(g.ctx, fetchTimeout)
	cp, err := g.peer.Ckpt.Fetch(fctx, f.key, ptr)
	cancel()
	if err != nil {
		g.counters.Counter("feed-errors").Add(1)
		return nil, 0, false
	}
	g.counters.Counter("follower-bootstraps").Add(1)
	return patch.FromLines(cp.Lines), cp.TS, true
}

// Follower is a read-only view of one document, served entirely from
// the gateway's feed snapshot: Read never runs OT, never validates,
// never contacts the KTS master.
type Follower struct {
	f *feed
}

// Follower opens a read-only follower on doc.
func (s *Session) Follower(doc string) *Follower {
	g := s.g
	v := &Follower{f: g.feedFor(doc)}
	g.counters.Counter("followers").Add(1)
	return v
}

// Read returns the committed text and its timestamp as of the feed's
// latest published snapshot.
func (v *Follower) Read() (string, uint64) {
	v.f.g.counters.Counter("follower-reads").Add(1)
	v.f.stateMu.Lock()
	defer v.f.stateMu.Unlock()
	return strings.Join(v.f.lines, "\n"), v.f.ts
}

// TS returns the snapshot's committed timestamp without counting as a
// read.
func (v *Follower) TS() uint64 {
	v.f.stateMu.Lock()
	defer v.f.stateMu.Unlock()
	return v.f.ts
}
