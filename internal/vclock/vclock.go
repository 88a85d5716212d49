// Package vclock is the clock seam of this codebase: every timer,
// timeout, periodic task and simulated-latency delay goes through a
// Clock, so the whole stack can run either against the wall clock
// (production, the default — zero behavior change) or against Virtual, a
// deterministic discrete-event scheduler that advances time to the next
// due event whenever every participating goroutine is parked.
//
// Virtual time is what unlocks the paper's evaluation regime: a
// simulated second costs microseconds instead of a second per goroutine,
// so thousand-peer churn runs (internal/chord's scale tests) finish in
// seconds of real time and — because the scheduler wakes exactly one
// goroutine per event — replay identically under a fixed seed.
package vclock

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for the transport, chord, DHT and maintenance
// layers. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for d, returning early with the
	// context's error when ctx is cancelled or its deadline passes first.
	// d <= 0 returns ctx.Err() without sleeping.
	Sleep(ctx context.Context, d time.Duration) error
	// NewTicker returns a ticker with period d (d must be positive).
	NewTicker(d time.Duration) Ticker
	// WithTimeout derives a context that expires after d on this clock.
	// Virtual clocks report the deadline in virtual time and surface it
	// through Deadline() and Err(); the Done channel of a virtual
	// deadline closes only on explicit cancel, so code that must observe
	// expiry while blocked should block through Sleep (which honours the
	// deadline) rather than on Done alone.
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)
	// WithCancel derives a cancellable context whose cancel function
	// additionally wakes any goroutine the clock has parked under it (a
	// virtual clock cannot otherwise observe an external cancellation).
	WithCancel(parent context.Context) (context.Context, context.CancelFunc)
	// Go runs f on a new goroutine tracked by the clock. Every goroutine
	// that may Sleep or Wait on a virtual clock must be started through
	// Go (or bracketed by Virtual.Register/Unregister), so the scheduler
	// knows when the system is quiescent.
	Go(f func())
	// Block runs f — an operation that blocks on something the clock
	// cannot see, such as sync.WaitGroup.Wait on untracked goroutines —
	// with the calling goroutine detached from the clock, so virtual time
	// can keep advancing while f waits.
	Block(f func())
	// Gather runs each f on its own tracked goroutine and blocks the
	// caller until all of them complete. It is the fork-join primitive
	// concurrent fan-outs (the p2plog retrieval windows) must use on a
	// virtual clock: the equivalent Go+WaitGroup+Block construction
	// leaves an OS-timing race at the join — the last worker's
	// detachment from the scheduler races the caller's reattachment, so
	// a ticker goroutine can slip in and run concurrently with the
	// caller — whereas Gather hands off under the scheduler lock, with
	// exactly one goroutine runnable when it returns.
	Gather(fs ...func())
}

// Ticker delivers periodic ticks. Unlike time.Ticker it is pull-based:
// Wait blocks until the next tick, which lets a virtual clock account
// for the waiting goroutine precisely. A tick that comes due while the
// owner is busy is latched and delivered at the next Wait; ticks never
// pile up.
type Ticker interface {
	// Wait blocks until the next tick, returning nil, or the context's
	// error if ctx is cancelled first.
	Wait(ctx context.Context) error
	// Stop releases the ticker. It must not be called concurrently with
	// Wait.
	Stop()
}

// System is the wall clock.
var System Clock = Real{}

// OrSystem returns c, or System when c is nil — the idiom config structs
// use so their zero value keeps real-time behavior.
func OrSystem(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}

// Real implements Clock on the runtime's wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

// WithTimeout implements Clock.
func (Real) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}

// WithCancel implements Clock.
func (Real) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(parent)
}

// Go implements Clock.
func (Real) Go(f func()) { go f() }

// Block implements Clock.
func (Real) Block(f func()) { f() }

// Gather implements Clock.
func (Real) Gather(fs ...func()) {
	var wg sync.WaitGroup
	for _, f := range fs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

type realTicker struct{ t *time.Ticker }

func (r realTicker) Wait(ctx context.Context) error {
	select {
	case <-r.t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r realTicker) Stop() { r.t.Stop() }
