package vclock

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic discrete-event clock. Goroutines register
// with it (Go, or Register/Unregister for the driving goroutine) and
// park on it through Sleep and Ticker.Wait; when every registered
// goroutine is parked, the goroutine that parked last advances virtual
// time to the earliest pending deadline and wakes exactly one waiter.
// Execution is therefore cooperative and effectively single-threaded:
// given the same seed-driven inputs, the same sequence of events replays
// on every run, which is what makes thousand-peer simulations both fast
// (no real sleeping anywhere) and reproducible.
//
// Rules for deterministic use:
//
//   - every goroutine that can park must be started via Go (or bracketed
//     by Register/Unregister); an untracked goroutine parking would
//     corrupt the quiescence count;
//   - operations that block on anything the clock cannot see (WaitGroup
//     waits for untracked work, channel receives) must be wrapped in
//     Block so time can advance past them;
//   - contexts that get cancelled while a goroutine is parked must come
//     from this clock's WithCancel/WithTimeout, whose cancel functions
//     wake the affected waiters.
//
// Events fire in (deadline, seq) order, seq being the order in which
// they were armed; that order is the only thing determinism depends on.
//
// Virtual time starts at the Unix epoch and is kept as int64 nanoseconds
// since it; sums saturate at the end of that range. Real wall-clock
// deadlines (year >> 1970) attached to foreign contexts are clamped into
// it, so they are effectively infinite and mixing a stray
// context.WithTimeout into a simulation degrades to "no deadline" rather
// than a time warp.
type Virtual struct {
	mu         sync.Mutex
	now        atomic.Int64 // nanoseconds since the epoch; stored under mu, loaded anywhere
	seq        uint64
	active     int // registered goroutines currently runnable
	registered int // registered goroutines, runnable or parked
	blocked    int // goroutines detached inside Block
	timers     timerHeap
	awaited    []*entry // entries a goroutine is parked on, each at its awaitIdx
	free       []*entry // consumed entries armLocked hands out again
}

// entry is one scheduled wake-up on the virtual timeline. Entries are
// ordered by (deadline, seq): seq is assigned at arm time, so events due
// at the same instant fire in creation order.
//
// The entries Sleep, Go, Gather's workers and virtualTicker.Wait arm are
// owned by the one goroutine that consumes them; once it has taken the
// token of a fired entry it returns the entry to the free list
// (releaseLocked). Mutex waiters and Gather barriers are never returned.
type entry struct {
	deadline int64 // nanoseconds since the epoch
	seq      uint64
	index    int             // position in the timer heap; -1 once popped
	awaitIdx int             // position in Virtual.awaited while awaited
	ctx      context.Context // non-nil while a goroutine is parked on it
	awaited  bool
	fired    bool
	removed  bool
	err      error         // non-nil when woken by cancellation or deadline
	wake     chan struct{} // 1-buffered; firing sends the one token
}

// NewVirtual returns a virtual clock at the Unix epoch with no
// registered goroutines.
func NewVirtual() *Virtual { return &Virtual{} }

// Now implements Clock.
func (v *Virtual) Now() time.Time { return time.Unix(0, v.now.Load()).UTC() }

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Register adds the calling goroutine to the clock's accounting. The
// driver of a simulation calls it once before interacting with
// clock-driven components (and Unregister when done); goroutines started
// with Go are registered automatically.
func (v *Virtual) Register() {
	v.mu.Lock()
	v.registered++
	v.active++
	v.mu.Unlock()
}

// Unregister removes the calling goroutine from the clock's accounting,
// advancing time if everyone else is parked.
func (v *Virtual) Unregister() {
	v.mu.Lock()
	v.registered--
	v.active--
	v.advanceLocked()
	v.mu.Unlock()
}

// Go implements Clock. The spawned goroutine does not run immediately:
// it first parks on a start event armed at the current instant, so the
// scheduler admits it only when every other tracked goroutine is parked,
// in spawn order. This is what makes the whole simulation effectively
// single-threaded: without it the child and its spawner would be
// runnable concurrently on real OS threads, and their timer arming (and
// any shared RNG draws behind it) would interleave nondeterministically
// — the windowed p2plog fan-out raced exactly like that before E12.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	v.registered++
	v.active++
	start := v.armLocked(v.now.Load())
	v.mu.Unlock()
	go func() {
		defer v.Unregister()
		v.mu.Lock()
		v.startLocked(start)
		v.mu.Unlock()
		f()
	}()
}

// startLocked holds a new goroutine until the scheduler fires its start
// event, then recycles the event. Caller holds v.mu.
func (v *Virtual) startLocked(start *entry) {
	// The start event cannot have fired yet — this goroutine is counted
	// active, which holds the scheduler off — but check anyway so a
	// latched event cannot corrupt the accounting.
	if start.fired {
		<-start.wake
	} else {
		_ = v.parkLocked(start, nil)
	}
	v.releaseLocked(start)
}

// Gather implements Clock: fork-join with a scheduler-mediated handoff.
// The workers are admitted in slice order (each parks on a start event,
// like Go); the caller parks on a barrier entry that the LAST finishing
// worker fires in the same critical section as its own detachment from
// the scheduler, so there is never an instant where a finished worker
// and the resumed caller — or a ticker goroutine that slipped through a
// transient quiescence — are runnable together. That instant is exactly
// the OS-timing race Go+WaitGroup+Block suffers at the join.
func (v *Virtual) Gather(fs ...func()) {
	if len(fs) == 0 {
		return
	}
	v.mu.Lock()
	// The barrier entry is parkable but must never fire from the timer
	// heap: mark it removed so popLocked discards it, leaving the
	// explicit fire below as its only wake-up.
	barrier := v.armLocked(v.now.Load())
	barrier.removed = true
	remaining := len(fs)
	starts := make([]*entry, len(fs))
	for i := range fs {
		v.registered++
		v.active++
		starts[i] = v.armLocked(v.now.Load())
	}
	v.mu.Unlock()
	for i, f := range fs {
		start, fn := starts[i], f
		go func() {
			v.mu.Lock()
			v.startLocked(start)
			v.mu.Unlock()
			fn()
			v.mu.Lock()
			remaining--
			if remaining == 0 && barrier.awaited && !barrier.fired {
				barrier.fired = true
				v.active++ // the caller wakes...
				barrier.wake <- struct{}{}
			}
			v.registered-- // ...as this worker bows out, atomically
			v.active--
			v.advanceLocked()
			v.mu.Unlock()
		}()
	}
	v.mu.Lock()
	if !barrier.fired {
		_ = v.parkLocked(barrier, nil)
	}
	v.mu.Unlock()
}

// Block implements Clock: it detaches the calling goroutine while f
// blocks on something the clock cannot see.
func (v *Virtual) Block(f func()) {
	v.mu.Lock()
	v.active--
	v.blocked++
	v.advanceLocked()
	v.mu.Unlock()
	defer func() {
		v.mu.Lock()
		v.active++
		v.blocked--
		v.mu.Unlock()
	}()
	f()
}

// Sleep implements Clock. The wake-up is capped at ctx's deadline when
// that deadline is expressed on this clock (see WithTimeout); sleeping
// past it returns context.DeadlineExceeded, mirroring how a real-time
// wait inside an expiring context surfaces.
func (v *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v.mu.Lock()
	now := v.now.Load()
	wake := addSat(now, d)
	deadlined := false
	if dl, ok := deadlineNano(ctx); ok && dl < wake {
		wake = dl
		deadlined = true
	}
	if wake <= now {
		v.mu.Unlock()
		if deadlined {
			return context.DeadlineExceeded
		}
		return ctx.Err()
	}
	e := v.armLocked(wake)
	err := v.parkLocked(e, ctx)
	v.releaseLocked(e)
	v.mu.Unlock()
	if err != nil {
		return err
	}
	if deadlined {
		return context.DeadlineExceeded
	}
	return nil
}

// NewTicker implements Clock. The first tick is armed immediately (on
// the calling goroutine, so creation order fixes same-instant tick
// order); later ticks re-arm as each Wait consumes its predecessor.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker period")
	}
	v.mu.Lock()
	t := &virtualTicker{v: v, period: d}
	t.e = v.armLocked(addSat(v.now.Load(), d))
	v.mu.Unlock()
	return t
}

// WithTimeout implements Clock. The deadline lives on the virtual
// timeline; it is surfaced lazily through Deadline()/Err() and enforced
// by Sleep, not by closing Done (see the Clock docs).
func (v *Virtual) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	inner, cancel := context.WithCancel(parent)
	now := v.now.Load()
	ctx := &vctx{Context: inner, v: v, deadline: time.Unix(0, now).UTC().Add(d), deadlineNano: addSat(now, d)}
	if pdl, ok := parent.Deadline(); ok && pdl.Before(ctx.deadline) {
		ctx.deadline, ctx.deadlineNano = pdl, toNano(pdl)
	}
	return ctx, func() {
		cancel()
		v.wakeExact(ctx)
	}
}

// WithCancel implements Clock. The returned cancel function wakes every
// parked goroutine whose context became done, which is how external
// shutdown (a node Stop during simulated churn) interrupts parked
// maintenance loops without waiting out their timers.
func (v *Virtual) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	inner, cancel := context.WithCancel(parent)
	return inner, func() {
		cancel()
		v.wakeCancelled()
	}
}

// vctx carries a virtual-time deadline on top of a cancellable context.
type vctx struct {
	context.Context
	v            *Virtual
	deadline     time.Time // what Deadline reports
	deadlineNano int64     // the same instant on the virtual timeline, clamped
	parked       int       // goroutines parked on exactly this context; guarded by v.mu
}

func (c *vctx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *vctx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if c.v.now.Load() >= c.deadlineNano {
		return context.DeadlineExceeded
	}
	return nil
}

var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// deadlineNano returns ctx's deadline on the virtual timeline. A deadline
// outside the int64 range (a wall-clock year-9999 one, say) is clamped
// to its end, so it can never wrap into the virtual past.
func deadlineNano(ctx context.Context) (int64, bool) {
	if c, ok := ctx.(*vctx); ok {
		return c.deadlineNano, true
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return toNano(dl), true
}

// toNano is t in nanoseconds since the epoch, clamped to the int64 range.
func toNano(t time.Time) int64 {
	switch {
	case t.Before(minTime):
		return math.MinInt64
	case t.After(maxTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// addSat is t+d for an instant t >= 0 on the timeline, saturating at
// the end of the int64 range instead of wrapping.
func addSat(t int64, d time.Duration) int64 {
	if s := t + int64(d); d < 0 || s >= t {
		return s
	}
	return math.MaxInt64
}

// armLocked schedules a wake-up at deadline, reusing a released entry
// when one is free. Caller holds v.mu.
func (v *Virtual) armLocked(deadline int64) *entry {
	var e *entry
	if n := len(v.free); n > 0 {
		e = v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
		if e.index >= 0 {
			panic("vclock: a released entry is still scheduled")
		}
		*e = entry{wake: e.wake}
	} else {
		e = &entry{wake: make(chan struct{}, 1)}
	}
	v.seq++
	e.deadline, e.seq = deadline, v.seq
	v.timers.push(e)
	return e
}

// releaseLocked returns e to the free list once it has fired and left
// the heap; its owner must already have taken the wake token. An entry
// abandoned before it fired (its context was done at park time) stays a
// heap tombstone and is left to the garbage collector. Caller holds v.mu.
func (v *Virtual) releaseLocked(e *entry) {
	if e.fired && e.index < 0 {
		v.free = append(v.free, e)
	}
}

// parkLocked blocks the calling goroutine on e until the scheduler (or a
// cancellation) fires it, returning the wake error. Caller holds v.mu;
// parkLocked re-acquires it before returning.
func (v *Virtual) parkLocked(e *entry, ctx context.Context) error {
	// Re-check cancellation under v.mu: wakeCancelled only wakes entries
	// parked at the instant it runs, so a goroutine whose ctx was
	// cancelled between its own Err() pre-check and this point must not
	// park — nothing would ever wake it, and a frozen waiter freezes the
	// whole virtual timeline. The lock serializes against the cancel
	// path, closing the window.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			e.removed = true
			return err
		}
	}
	e.awaited = true
	e.ctx = ctx
	e.awaitIdx = len(v.awaited)
	v.awaited = append(v.awaited, e)
	// wakeExact finds waiters by this count; only this clock's contexts
	// are counted, as only this clock's cancel functions look.
	vc, _ := ctx.(*vctx)
	if vc != nil && vc.v == v {
		vc.parked++
	}
	v.active--
	v.advanceLocked()
	v.mu.Unlock()
	<-e.wake
	v.mu.Lock()
	last := len(v.awaited) - 1
	moved := v.awaited[last]
	v.awaited[e.awaitIdx] = moved
	moved.awaitIdx = e.awaitIdx
	v.awaited[last] = nil
	v.awaited = v.awaited[:last]
	if vc != nil && vc.v == v {
		vc.parked--
	}
	e.ctx = nil
	return e.err
}

// advanceLocked is the scheduler: when every registered goroutine is
// parked, it advances virtual time to the earliest pending deadline and
// fires it. Exactly one parked goroutine wakes per event; an unawaited
// ticker tick (its owner is busy elsewhere) is latched and time keeps
// advancing. Caller holds v.mu.
func (v *Virtual) advanceLocked() {
	for v.active == 0 && v.registered > 0 {
		e := v.popLocked()
		if e == nil {
			if v.blocked > 0 {
				// No timers, but someone is detached inside Block: their
				// operation completes through external means and
				// reattaches, so this is quiescence, not deadlock.
				return
			}
			panic(fmt.Sprintf(
				"vclock: deadlock at %s: %d goroutine(s) parked with no pending timers",
				v.Now().Format("15:04:05.000"), v.registered))
		}
		if e.deadline > v.now.Load() {
			v.now.Store(e.deadline)
		}
		e.fired = true
		e.wake <- struct{}{}
		if e.awaited {
			v.active++
			return
		}
	}
}

// popLocked returns the earliest live entry, discarding fired and
// removed ones. Caller holds v.mu.
func (v *Virtual) popLocked() *entry {
	for len(v.timers) > 0 {
		e := v.timers.pop()
		if e.fired || e.removed {
			continue
		}
		return e
	}
	return nil
}

// wakeExact wakes goroutines parked on exactly ctx. It is the cheap
// cancel path for WithTimeout contexts: per-call timeouts are cancelled
// after every RPC, almost always with nobody parked, so this must be
// O(1) in that case.
func (v *Virtual) wakeExact(ctx *vctx) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ctx.parked == 0 {
		return
	}
	for _, e := range v.awaited {
		if e.fired || e.ctx != context.Context(ctx) {
			continue
		}
		v.expediteLocked(e)
	}
}

// wakeCancelled wakes every parked goroutine whose context is done —
// including contexts derived from the cancelled one, which the clock
// cannot enumerate directly. Linear in the number of parked goroutines;
// called only on shutdown/crash paths.
func (v *Virtual) wakeCancelled() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range v.awaited {
		if e.fired || e.ctx == nil || e.ctx.Err() == nil {
			continue
		}
		v.expediteLocked(e)
	}
}

// expediteLocked reschedules a parked entry whose context is done: its
// wake error is latched and its deadline pulled up to the current
// instant, so the ordinary scheduler admits it — one goroutine at a
// time, in arm order — at the next quiescent instant. Firing the whole
// cancelled set synchronously here (the old behavior) made every
// affected goroutine runnable at once on real OS threads, in map
// iteration order: their interleaving was invisible while every
// cancellation effect was commutative (counter bumps), but it leaks
// straight into anything that observes ordering — flight-recorder
// sequence numbers, trace ID minting. Caller holds v.mu and has checked
// e is awaited and unfired.
func (v *Virtual) expediteLocked(e *entry) {
	if e.err == nil {
		e.err = e.ctx.Err()
		if e.err == nil {
			e.err = context.Canceled
		}
	}
	if now := v.now.Load(); e.deadline > now {
		e.deadline = now
		if e.index >= 0 {
			v.timers.up(e.index)
		}
	}
}

// Mutex is a clock-aware mutual exclusion lock for critical sections
// that may PARK while held — a KTS master validating a patch holds the
// per-key lock across network publishes, for example. A plain
// sync.Mutex there deadlocks a virtual-time run: the contending
// goroutine blocks outside the scheduler's accounting, the clock
// believes it is still runnable, and time never advances for the
// holder to finish. A Mutex waiter instead parks through the
// scheduler, and unlock hands the lock to the oldest waiter at the
// next quiescent instant — FIFO by arrival, so same-seed simulations
// acquire in the same order every run.
//
// On a wall clock (NewMutex with anything but a *Virtual) it is a
// plain sync.Mutex: zero production change.
type Mutex struct {
	v    *Virtual // nil: real mutex semantics
	real sync.Mutex

	// Virtual state, guarded by v.mu.
	held    bool
	waiters []*entry
}

// NewMutex returns a mutex whose blocking is accounted on c.
func NewMutex(c Clock) *Mutex {
	if v, ok := c.(*Virtual); ok {
		return &Mutex{v: v}
	}
	return &Mutex{}
}

// Lock acquires the mutex, parking on the clock while it is held
// elsewhere.
func (m *Mutex) Lock() {
	if m.v == nil {
		m.real.Lock()
		return
	}
	v := m.v
	v.mu.Lock()
	if !m.held {
		m.held = true
		v.mu.Unlock()
		return
	}
	// The wait entry is parkable but heap-invisible (removed): it must
	// not fire on its own — Unlock re-arms it when the lock is handed
	// over, and the scheduler then admits the waiter at the next
	// quiescent instant, preserving the one-runnable-goroutine
	// invariant.
	e := v.armLocked(v.now.Load())
	e.removed = true
	m.waiters = append(m.waiters, e)
	_ = v.parkLocked(e, nil)
	// Woken: ownership was transferred to us by Unlock (held stays true).
	v.mu.Unlock()
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock() {
	if m.v == nil {
		m.real.Unlock()
		return
	}
	v := m.v
	v.mu.Lock()
	if len(m.waiters) == 0 {
		m.held = false
		v.mu.Unlock()
		return
	}
	e := m.waiters[0]
	m.waiters = m.waiters[1:]
	// Re-arm at the original (deadline, seq): the scheduler fires it once
	// everything else is parked, and the waiter resumes as the sole
	// runnable goroutine, already owning the lock. The entry may still be
	// physically in the heap (popLocked discards removed entries lazily);
	// clearing the flag in place keeps it single-instance, which the heap
	// index bookkeeping requires.
	e.removed = false
	if e.index < 0 {
		v.timers.push(e)
	}
	v.mu.Unlock()
}

// virtualTicker implements Ticker on a Virtual clock. The next tick is
// always armed: at creation, and re-armed as each Wait consumes the
// previous one, so tick times are aligned to the period grid regardless
// of how long the owner spends between Waits (missed grid points are
// skipped, as with time.Ticker).
type virtualTicker struct {
	v       *Virtual
	period  time.Duration
	e       *entry
	stopped bool
}

func (t *virtualTicker) Wait(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v := t.v
	v.mu.Lock()
	if t.stopped {
		v.mu.Unlock()
		return context.Canceled
	}
	e := t.e
	var err error
	if e.fired {
		<-e.wake // latched tick: take its token without parking
		err = e.err
	} else {
		err = v.parkLocked(e, ctx)
	}
	now := v.now.Load()
	next := addSat(e.deadline, t.period)
	if next <= now {
		next = addSat(now, t.period)
	}
	v.releaseLocked(e)
	t.e = v.armLocked(next)
	v.mu.Unlock()
	return err
}

func (t *virtualTicker) Stop() {
	t.v.mu.Lock()
	t.stopped = true
	if t.e != nil {
		t.e.removed = true
		t.e = nil
	}
	t.v.mu.Unlock()
}

// timerHeap is a binary min-heap of entries ordered by (deadline, seq);
// every entry in it knows its slot (index).
type timerHeap []*entry

func (e *entry) before(o *entry) bool {
	return e.deadline < o.deadline || e.deadline == o.deadline && e.seq < o.seq
}

func (h *timerHeap) push(e *entry) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

// up moves the entry at slot i towards the root; a pushed entry and an
// expedited one (whose deadline only ever moves earlier) need nothing
// else.
func (h timerHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// pop removes and returns the earliest entry. The hole it leaves at the
// root sinks to a leaf along the earlier children, and the last leaf
// fills it and rises: a last leaf nearly always belongs near the bottom,
// so this costs one comparison per level instead of two.
func (h *timerHeap) pop() *entry {
	old := *h
	n := len(old) - 1
	top, last := old[0], old[n]
	old[n] = nil
	old = old[:n]
	*h = old
	top.index = -1
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && old[c+1].before(old[c]) {
			c++
		}
		old[i] = old[c]
		old[i].index = i
		i = c
	}
	old[i] = last
	old.up(i)
	return top
}
