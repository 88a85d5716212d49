// Package trace is the lightweight span tracer of the commit pipeline.
// A Span covers one unit of work (a batched commit, a KTS validation, a
// follower delivery); Mark calls split its lifetime into named stages so
// the segment durations of a span sum exactly to its total — per-stage
// latency attributions reconcile with end-to-end latency by construction.
//
// All timestamps go through the vclock.Clock seam: under vclock.Virtual,
// Now() is a side-effect-free atomic read, so tracing is exact under
// virtual time and does not perturb the deterministic scheduler. A nil
// *Tracer (and the nil *Span it hands out) is a valid no-op, so
// instrumented code never branches on "is tracing on".
//
// The package also holds each peer's flight recorder (Recorder): a ring
// of lifecycle events — chord join/suspect/evict, KTS grant/shed/takeover,
// DHT promotion/re-home, checkpoint publish/repair, truncation — recorded
// as zero-width SpanData, so spans and events are one record type folded
// by one hash.
package trace

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"p2pltr/internal/metrics"
	"p2pltr/internal/vclock"
)

// Event is one attributed segment of a span. Mark events carry the time
// elapsed since the previous mark; Note events are zero-width
// annotations (cache hits, shed decisions) that consume no span time.
type Event struct {
	Stage string
	Dur   time.Duration
	N     int64
	Note  bool
}

// SpanData is the immutable record of a finished span or of a lifecycle
// event. Trace is the commit-wide trace ID shared by every span of one
// causally-related pipeline, across peers: a root span mints it, and
// server-side child spans opened from a propagated SpanContext inherit
// it. Parent is the upstream span's ID (0 for roots), Hops the RPC depth
// below the root, and Peer the address of the peer that served a remote
// child span. An event (see Recorder) is zero-width — Start == End — with
// ID its recorder's sequence number and Detail its free-form payload.
type SpanData struct {
	ID     uint64
	Trace  uint64
	Parent uint64
	Hops   uint8
	Peer   string
	Kind   string
	Key    string
	Start  time.Time
	End    time.Time
	Err    string
	Detail string
	Events []Event
}

// Total returns the span's end-to-end duration.
func (d SpanData) Total() time.Duration { return d.End.Sub(d.Start) }

// Stage returns the summed duration attributed to stage.
func (d SpanData) Stage(stage string) time.Duration {
	var sum time.Duration
	for _, e := range d.Events {
		if e.Stage == stage && !e.Note {
			sum += e.Dur
		}
	}
	return sum
}

// FNV-1a, inlined so determinism digests need no hash imports.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

func foldInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime
		u >>= 8
	}
	return h
}

// HashSeed is the initial accumulator for Hash chains.
func HashSeed() uint64 { return fnvOffset }

// Hash folds the span — kind, key, error, start/end instants, and every
// stage event, but not Detail — into a rolling 64-bit FNV-1a accumulator. Determinism tests
// fold every finished span in completion order into one digest and
// compare digests across same-seed runs.
func (d SpanData) Hash(h uint64) uint64 {
	h = foldString(h, d.Kind)
	h = foldString(h, d.Key)
	h = foldString(h, d.Err)
	h = foldString(h, d.Peer)
	h = foldInt(h, int64(d.Trace))
	h = foldInt(h, int64(d.Parent))
	h = foldInt(h, int64(d.Hops))
	h = foldInt(h, d.Start.UnixNano())
	h = foldInt(h, d.End.UnixNano())
	for _, e := range d.Events {
		h = foldString(h, e.Stage)
		h = foldInt(h, int64(e.Dur))
		h = foldInt(h, e.N)
		if e.Note {
			h = foldInt(h, 1)
		} else {
			h = foldInt(h, 0)
		}
	}
	return h
}

// defaultStageBuckets bound the per-stage aggregate histograms kept by
// the tracer for metrics export (memory-bounded, unlike the spans ring
// which is explicitly capped).
var defaultStageBuckets = []time.Duration{
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second,
	10 * time.Second, 30 * time.Second, time.Minute,
}

// Tracer hands out spans, keeps a bounded ring of recently finished
// spans for introspection, and aggregates per-(kind,stage) durations
// into fixed-bucket histograms for metrics export.
type Tracer struct {
	clk vclock.Clock

	mu     sync.Mutex
	origin string // folded into minted trace IDs (see SetOrigin)
	nextID uint64
	recent ring                          // recently finished spans
	stages map[string]*metrics.Histogram // "kind/stage" aggregates
	sink   func(SpanData)
}

// New returns a tracer timing through clk (the system clock when nil),
// retaining the last keep finished spans (256 when keep <= 0).
func New(clk vclock.Clock, keep int) *Tracer {
	return &Tracer{
		clk:    vclock.OrSystem(clk),
		recent: newRing(keep),
		stages: make(map[string]*metrics.Histogram),
	}
}

// SetOrigin names the process (peer address) this tracer mints trace
// IDs for. The origin is folded into every root span's trace ID
// alongside the local span counter, so tracers on different peers mint
// disjoint, fully deterministic trace IDs with no wall clock and no
// randomness. Wiring-time configuration; an empty origin (the default)
// degrades to counter-only IDs, which stay unique within one tracer.
func (t *Tracer) SetOrigin(origin string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.origin = origin
	t.mu.Unlock()
}

// SetSink installs a callback invoked synchronously (outside the tracer
// lock, on the ending goroutine) with every finished span. The plan
// runner and the benchmark use it to collect full span sets that outlive
// the recent ring.
func (t *Tracer) SetSink(fn func(SpanData)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// Start opens a span of the given kind (pipeline unit: "commit",
// "validate", "deliver") over key, starting now. Nil-safe: a nil tracer
// returns a nil span, and every span method is a no-op on nil.
func (t *Tracer) Start(kind, key string) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(kind, key, t.clk.Now())
}

// StartAt opens a span whose lifetime began at start (a batch's span
// starts when its oldest line was enqueued, before the batch drain runs).
func (t *Tracer) StartAt(kind, key string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	id, trace := t.mint()
	return &Span{t: t, id: id, trace: trace, kind: kind, key: key, start: start, mark: start}
}

// StartRemote opens a server-side child span continuing the trace
// context ctx carried across an RPC (see SpanContext): the child shares
// the caller's trace ID, records the caller's span as its parent, and
// sits one hop deeper. peer tags the span with the address of the peer
// serving it, so cross-peer timelines attribute each segment. Without a
// remote context in ctx the span is an ordinary root (StartAt), still
// tagged with peer.
func (t *Tracer) StartRemote(ctx context.Context, kind, key, peer string) *Span {
	if t == nil {
		return nil
	}
	id, trace := t.mint()
	s := &Span{t: t, id: id, trace: trace, peer: peer, kind: kind, key: key}
	if sc, ok := RemoteFromContext(ctx); ok {
		s.trace = sc.TraceID
		s.parent = sc.SpanID
		s.hops = sc.Hops + 1
	}
	s.start = t.clk.Now()
	s.mark = s.start
	return s
}

// mint allocates a span ID and the trace ID a root span with it would
// carry: origin folded with the counter through FNV-1a — deterministic,
// unique per tracer, disjoint across tracers with distinct origins.
func (t *Tracer) mint() (id, trace uint64) {
	t.mu.Lock()
	t.nextID++
	id = t.nextID
	origin := t.origin
	t.mu.Unlock()
	return id, foldInt(foldString(fnvOffset, origin), int64(id))
}

// Ended returns the number of spans finished so far.
func (t *Tracer) Ended() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.recent.total)
}

// Recent returns up to n recently finished spans, ordered NEWEST FIRST:
// Recent(n)[0] is always the most recently ended span, and older spans
// follow in reverse completion order until the ring's capacity cuts the
// history off. Callers rendering timelines (the /trace and /events
// views) rely on this ordering; it is pinned by TestRecentNewestFirst.
func (t *Tracer) Recent(n int) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.newestFirst(n)
}

// StageHistograms returns the per-(kind,stage) aggregate duration
// histograms, keyed "kind/stage". The histograms are live (shared with
// the tracer); the map is a copy.
func (t *Tracer) StageHistograms() map[string]*metrics.Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*metrics.Histogram, len(t.stages))
	for k, h := range t.stages {
		out[k] = h
	}
	return out
}

// WriteRecent renders up to n recent spans (most recent first) as
// human-readable lines: one span per line, events inline.
func (t *Tracer) WriteRecent(w io.Writer, n int) {
	for _, d := range t.Recent(n) {
		fmt.Fprintf(w, "#%d %s key=%s total=%s", d.ID, d.Kind, d.Key, d.Total())
		if d.Err != "" {
			fmt.Fprintf(w, " err=%q", d.Err)
		}
		for _, e := range d.Events {
			if e.Note {
				fmt.Fprintf(w, " [%s n=%d]", e.Stage, e.N)
			} else {
				fmt.Fprintf(w, " %s=%s", e.Stage, e.Dur)
			}
		}
		fmt.Fprintln(w)
	}
}

// StageSummary renders the per-stage aggregate histograms in sorted key
// order, one "kind/stage: n=... p50=..." line each.
func (t *Tracer) StageSummary(w io.Writer) {
	hists := t.StageHistograms()
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %s\n", k, hists[k].Summary())
	}
}

func (t *Tracer) record(d SpanData) {
	t.mu.Lock()
	t.recent.add(d)
	for _, e := range d.Events {
		if e.Note {
			continue
		}
		key := d.Kind + "/" + e.Stage
		h, ok := t.stages[key]
		if !ok {
			h = metrics.NewBucketedHistogram(defaultStageBuckets...)
			t.stages[key] = h
		}
		h.Observe(e.Dur)
	}
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(d)
	}
}

// Span is one in-flight traced unit of work. Methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Span struct {
	t      *Tracer
	id     uint64
	trace  uint64
	parent uint64
	hops   uint8
	peer   string
	kind   string
	key    string
	start  time.Time

	mu     sync.Mutex
	mark   time.Time
	events []Event
	done   bool
}

// Context returns the span's propagatable trace context — what an RPC
// envelope carries to the serving peer. Nil-safe: a nil span returns the
// zero SpanContext, whose zero TraceID means "nothing to propagate".
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace, SpanID: s.id, Hops: s.hops}
}

// Mark attributes the time since the previous mark (or span start) to
// stage and advances the mark.
func (s *Span) Mark(stage string) { s.MarkN(stage, 1) }

// MarkN is Mark with an attached magnitude (hop count, records fetched).
func (s *Span) MarkN(stage string, n int64) {
	if s == nil {
		return
	}
	now := s.t.clk.Now()
	s.mu.Lock()
	if !s.done {
		s.events = append(s.events, Event{Stage: stage, Dur: now.Sub(s.mark), N: n})
		s.mark = now
	}
	s.mu.Unlock()
}

// Note records a zero-width annotation; the mark does not advance, so
// notes never consume span time.
func (s *Span) Note(stage string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.events = append(s.events, Event{Stage: stage, N: n, Note: true})
	}
	s.mu.Unlock()
}

// End finishes the span successfully.
func (s *Span) End() { s.EndErr(nil) }

// EndErr finishes the span, recording err when non-nil. Any unattributed
// residual time lands in a synthetic "tail" stage so segment durations
// always sum exactly to the span total. Ending twice is a no-op.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	now := s.t.clk.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	if rem := now.Sub(s.mark); rem > 0 {
		s.events = append(s.events, Event{Stage: "tail", Dur: rem, N: 1})
	}
	d := SpanData{ID: s.id, Trace: s.trace, Parent: s.parent, Hops: s.hops, Peer: s.peer,
		Kind: s.kind, Key: s.key, Start: s.start, End: now, Events: s.events}
	s.events = nil
	s.mu.Unlock()
	if err != nil {
		d.Err = err.Error()
	}
	s.t.record(d)
}

// ---------------------------------------------------------------------------
// Context propagation. Two carriers share the request context:
//
//   - the LOCAL carrier holds a live *Span within one process (the
//     gateway editor opens a commit span and the core replica marks
//     stages on it through the request context);
//   - the REMOTE carrier holds the compact SpanContext a transport
//     extracted from an RPC envelope on the serving side. It is a
//     distinct key on purpose: a handler must see exactly what the wire
//     carried, whichever transport (simnet or tcpnet) delivered it.

type ctxKey struct{}
type remoteKey struct{}

// SpanContext is the compact trace context an RPC envelope carries
// across peers: the commit-wide trace ID, the caller's span ID (the
// parent of any server-side child span), and the RPC hop depth below
// the root span. A zero TraceID means "no active trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Hops    uint8
}

// NewContext returns ctx carrying s as the local span. Nil-safe on the
// RPC injection path: a nil ctx starts from context.Background(), and a
// nil span returns ctx unchanged (never a panic).
func NewContext(ctx context.Context, s *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the local span carried by ctx, or nil. Nil-safe: a
// nil ctx (tolerated on the RPC injection path, where handlers may be
// dispatched with whatever context a transport produced) returns nil
// rather than panicking.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextWithRemote returns a ctx carrying sc as the serving-side trace
// context. It also shadows any local span: the caller's *Span must not
// leak through an in-process transport (simnet passes contexts by
// reference) or the two transports would disagree about what a handler
// can see. StartRemote consumes the carrier.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = context.WithValue(ctx, ctxKey{}, (*Span)(nil))
	return context.WithValue(ctx, remoteKey{}, sc)
}

// RemoteFromContext returns the serving-side trace context extracted by
// the transport, if any. Nil-safe.
func RemoteFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok && sc.TraceID != 0
}

// TraceIDFromContext returns the trace ID active in ctx — the local
// span's if one is live, else the remote carrier's — or 0. The flight
// recorder stamps lifecycle events with it.
func TraceIDFromContext(ctx context.Context) uint64 {
	if s := FromContext(ctx); s != nil {
		return s.trace
	}
	if sc, ok := RemoteFromContext(ctx); ok {
		return sc.TraceID
	}
	return 0
}
