// Package core assembles P2P-LTR and exposes its public API.
//
// A Peer is a full ring member: a Chord node hosting the DHT storage
// service (which also backs the P2P-Log's write-once replica slots) and
// the KTS timestamp service. A Replica is the user-application side: the
// local primary copy of one document at a user peer, with the paper's
// three procedures — edit locally (tentative patch), validate the patch
// timestamp (retrieving and reconciling missing patches when behind), and
// publish the validated patch to the P2P-Log.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/chord"
	"p2pltr/internal/dht"
	"p2pltr/internal/kts"
	"p2pltr/internal/maintain"
	"p2pltr/internal/metrics"
	"p2pltr/internal/msg"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// Options configures a peer.
type Options struct {
	// Chord tunes the ring maintenance; zero value selects
	// chord.DefaultConfig.
	Chord chord.Config
	// ClientBackoff separates retries (default 2x stabilize interval).
	ClientBackoff time.Duration
	// CheckpointInterval makes replicas on this peer snapshot a document
	// into the DHT every CheckpointInterval committed patches (the author
	// of the boundary patch is the elected producer). 0 disables
	// production; replicas still bootstrap from checkpoints published by
	// others.
	CheckpointInterval uint64
	// Maintain, when non-nil, mounts the self-healing maintenance engine
	// on this peer: fallback checkpoint production for boundary authors
	// that died before snapshotting, re-replication of eroded checkpoint
	// slots, and rate-limited checkpoint-gated log truncation — all run
	// from the Chord maintenance tick for keys this peer masters, with
	// CheckpointInterval as the period the lag detector assumes.
	Maintain *maintain.Config
	// Clock drives every timer, timeout, retry backoff and maintenance
	// period on this peer. nil means the wall clock — production behavior
	// is unchanged; a *vclock.Virtual runs the whole peer in simulated
	// time for large-scale deterministic experiments. A peer has one
	// clock: Chord.Clock is overwritten with it.
	Clock vclock.Clock
	// AdmissionLimit bounds how many validators may queue on any one
	// key's serialization mutex at this peer's KTS master (hot-key
	// admission: the excess is shed with ValidateBusy and a retry hint).
	// 0 = unlimited.
	AdmissionLimit int
	// Tracer threads the commit-pipeline span tracer through this peer:
	// replicas mark route/rpc/backoff/retrieve/checkpoint stages on the
	// commit spans they carry, and the KTS master records a validation
	// span per request. With tracing on, the chord dispatcher also opens
	// server-side child spans for RPCs arriving with a propagated trace
	// context, continuing the caller's trace ID on this peer. nil =
	// tracing off (zero overhead).
	Tracer *trace.Tracer
	// FlightRecorder, when positive, mounts a per-peer flight recorder
	// retaining the last FlightRecorder lifecycle events (chord
	// join/suspect/evict/handover, KTS grant/shed/takeover, DHT
	// promotion/re-home/floor advance, checkpoint fallback/repair,
	// truncation), each stamped with the peer address, the clock instant
	// and the active trace ID. 0 = recorder off (zero overhead).
	FlightRecorder int
}

func (o Options) withDefaults() Options {
	if o.Chord.SuccListLen == 0 {
		o.Chord = chord.DefaultConfig()
	}
	o.Clock = vclock.OrSystem(o.Clock)
	o.Chord.Clock = o.Clock
	if o.ClientBackoff == 0 {
		o.ClientBackoff = 2 * o.Chord.StabilizeEvery
	}
	return o
}

// clientAttempts bounds the lookup+call attempts of one DHT operation and
// of one master-key call.
const clientAttempts = 6

// Peer is one P2P-LTR ring member. Depending on the keys it is
// responsible for, it simultaneously plays the paper's Master-key,
// Master-key-Succ, Log-Peer and Log-Peer-Succ roles; with a Replica
// attached it is also a User Peer.
type Peer struct {
	opts  Options
	clock vclock.Clock
	// masterOpTimeout bounds one master-key operation attempt (validate,
	// last_ts, checkpoint announce): 20x the chord CallTimeout, at least
	// 10s. These RPCs are NOT single round trips — the master's handler
	// publishes to the Log-Peers, walks the log to re-synchronize after
	// failover, verifies checkpoint slots — so the chord CallTimeout (the
	// one-round-trip failure-suspicion bound) must not cap them: under
	// realistic latency a validation would then time out every time
	// regardless of health.
	masterOpTimeout time.Duration

	frontMu sync.RWMutex
	front   Front

	// replicas counts the NewReplica calls on this peer; each replica's
	// patch-ID session includes its count (see NewReplica).
	replicas atomic.Uint64

	Node *chord.Node
	DHT  *dht.Service
	KTS  *kts.Service

	Client *dht.Client
	Log    *p2plog.Log
	Ckpt   *checkpoint.Store
	// Maint is the self-healing maintenance engine (nil unless
	// Options.Maintain enabled it).
	Maint *maintain.Engine
	// Flight is the peer's flight recorder (nil unless
	// Options.FlightRecorder enabled it).
	Flight *trace.Recorder
}

// NewPeer wires a peer onto the given transport endpoint. Every service
// receives its ring view, clock, tracer and recorder as constructor
// arguments, in dependency order, and all of them are attached before the
// node can start — nothing wired here changes afterwards.
func NewPeer(ep transport.Endpoint, opts Options) *Peer {
	opts = opts.withDefaults()
	p := &Peer{opts: opts, clock: opts.Clock, masterOpTimeout: max(20*opts.Chord.CallTimeout, 10*time.Second)}
	if opts.FlightRecorder > 0 {
		p.Flight = trace.NewRecorder(opts.Clock, string(ep.Addr()), opts.FlightRecorder)
	}
	p.Node = chord.NewNode(ep, opts.Chord, opts.Tracer, p.Flight)
	p.Client = dht.NewClient(p.Node, clientAttempts, opts.ClientBackoff, opts.Clock)
	p.Log = p2plog.New(p.Client, opts.Clock)
	p.Ckpt = checkpoint.NewStore(p.Client)
	var maintCfg maintain.Config
	var floorHint func(ctx context.Context, key string) (uint64, bool)
	if opts.Maintain != nil {
		maintCfg = *opts.Maintain
		if maintCfg.Now == nil {
			maintCfg.Now = opts.Clock.Now
		}
		floorHint = floorFromCheckpoint(p.Ckpt, maintCfg, opts.CheckpointInterval)
	}
	p.DHT = dht.NewService(p.Node, opts.Clock, p.Flight, floorHint)
	p.KTS = kts.NewService(p.Node, p.Log, p.Ckpt, opts.Clock, opts.Tracer, p.Flight, opts.AdmissionLimit)
	p.Node.Attach(p.DHT)
	p.Node.Attach(p.KTS)
	if opts.Maintain != nil {
		p.Maint = maintain.NewEngine(maintCfg, opts.CheckpointInterval, p.KTS, p.Ckpt, p.Log, snapshotter{p}, p.Flight)
		p.Node.Attach(p.Maint)
	}
	return p
}

// floorFromCheckpoint is the DHT service's truncation-floor hint on a
// peer that runs the maintenance engine. Truncation floors are in-memory;
// after a restart they are re-derived from the replicated checkpoint
// pointer, minus the same safety margin the truncation sweep honors.
func floorFromCheckpoint(ckpt *checkpoint.Store, cfg maintain.Config, interval uint64) func(ctx context.Context, key string) (uint64, bool) {
	return func(ctx context.Context, key string) (uint64, bool) {
		ptr, err := ckpt.LatestPointer(ctx, key)
		if err != nil {
			return 0, false
		}
		return cfg.Horizon(ptr, interval), true
	}
}

// Front is what a serving front mounted on a peer (the gateway) lends
// to every replica opened there: the Master-key route it memoizes and
// the log tail it has already read. Implementations must be safe for
// concurrent use. Neither half can produce a wrong answer, only a saved
// or a wasted round trip: every master RPC response carries a NotMaster
// verdict, so the caller drops a stale route and falls back to the full
// lookup; log slots are write-once, so a record read once is the record.
type Front interface {
	// Lookup returns the memoized master for a document key.
	Lookup(key string) (msg.NodeRef, bool)
	// Store memoizes the master that just answered authoritatively.
	Store(key string, master msg.NodeRef)
	// Drop invalidates the entry after a failed or non-authoritative call.
	Drop(key string)
	// FetchRange is p2plog.Log.FetchRange for this peer's log, shared:
	// a record somebody on the peer has read, or is reading, is not
	// fetched from the DHT again.
	FetchRange(ctx context.Context, key string, from, to uint64) ([]p2plog.Record, error)
	// Committed hands over a record the master just acked, with the very
	// bytes it published, so nobody on the peer fetches it.
	Committed(rec p2plog.Record)
}

// SetFront installs f on the master RPC and retrieval paths of every
// replica opened at this peer (nil uninstalls: replicas then use the
// ring lookup and peer.Log directly). The gateway wires itself here.
func (p *Peer) SetFront(f Front) {
	p.frontMu.Lock()
	defer p.frontMu.Unlock()
	p.front = f
}

func (p *Peer) servingFront() Front {
	p.frontMu.RLock()
	defer p.frontMu.RUnlock()
	return p.front
}

// CheckpointInterval returns the configured checkpoint period (0 when
// this peer does not produce checkpoints).
func (p *Peer) CheckpointInterval() uint64 { return p.opts.CheckpointInterval }

// Tracer returns the commit-pipeline span tracer wired at construction
// (nil when tracing is off — the nil tracer is a valid no-op).
func (p *Peer) Tracer() *trace.Tracer { return p.opts.Tracer }

// MetricsRegistry builds the peer's unified metric registry: chord
// routing counters, DHT storage and client counters, KTS grant/reject
// counters and the live admission queue depth, the maintenance engine's
// pass counters when mounted, and the tracer's per-stage latency
// aggregates when tracing is on. Layered subsystems (the serving
// gateway) register their own families on the returned registry.
func (p *Peer) MetricsRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.AddFamily("p2pltr_chord", p.Node.Counters())
	reg.AddFamily("p2pltr_dht", p.DHT.Counters())
	reg.AddFamily("p2pltr_dht_client", p.Client.Counters())
	reg.AddFamily("p2pltr_kts", p.KTS.Counters())
	reg.AddGaugeFunc("p2pltr_kts_admission_queue_depth", p.KTS.AdmissionQueueDepth)
	if p.Maint != nil {
		reg.AddFamily("p2pltr_maintain", p.Maint.Counters())
	}
	if tr := p.opts.Tracer; tr != nil {
		reg.AddHistogramSet("p2pltr_trace", tr.StageHistograms)
	}
	return reg
}

// Clock returns the clock the peer's timers and backoffs run on.
func (p *Peer) Clock() vclock.Clock { return p.clock }

// Create bootstraps a new ring with this peer as its only member.
func (p *Peer) Create() { p.Node.Create() }

// Join adds the peer to the ring reachable through bootstrap.
func (p *Peer) Join(ctx context.Context, bootstrap transport.Addr) error {
	return p.Node.Join(ctx, bootstrap)
}

// Leave departs gracefully, transferring keys and timestamps to the
// successor (the paper's normal Master-key departure).
func (p *Peer) Leave(ctx context.Context) error { return p.Node.Leave(ctx) }

// Stop halts the peer without any protocol (fail-stop crash model).
func (p *Peer) Stop() { p.Node.Stop() }

// Addr returns the peer's transport address.
func (p *Peer) Addr() transport.Addr { return p.Node.Addr() }

// String identifies the peer.
func (p *Peer) String() string { return fmt.Sprintf("peer(%s)", p.Node.Ref()) }
