package vclock

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// driver registers the test goroutine with the clock for the duration of
// the test.
func driver(t *testing.T, v *Virtual) {
	t.Helper()
	v.Register()
	t.Cleanup(v.Unregister)
}

func TestVirtualSleepAdvancesTime(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	start := v.Now()
	if err := v.Sleep(context.Background(), 90*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := v.Since(start); got != 90*time.Minute {
		t.Fatalf("slept %v of virtual time, want exactly 90m", got)
	}
}

func TestVirtualSleepOrdering(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	var (
		mu    sync.Mutex
		order []string
	)
	note := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(3)
	for _, g := range []struct {
		tag string
		d   time.Duration
	}{{"slow", 30 * time.Millisecond}, {"fast", 10 * time.Millisecond}, {"mid", 20 * time.Millisecond}} {
		v.Go(func() {
			defer wg.Done()
			_ = v.Sleep(ctx, g.d)
			note(g.tag)
		})
	}
	// Sleeping past every waiter also waits out the workers' wakes: each
	// fires strictly before the driver's later deadline.
	_ = v.Sleep(ctx, 50*time.Millisecond)
	wg.Wait()
	if want := []string{"fast", "mid", "slow"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order %v, want %v", order, want)
	}
}

func TestVirtualTickerPeriodAndLatch(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	ctx := context.Background()
	tick := v.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	start := v.Now()
	for i := 0; i < 5; i++ {
		if err := tick.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Since(start); got != 50*time.Millisecond {
		t.Fatalf("5 ticks took %v of virtual time, want 50ms", got)
	}
	// A tick that comes due while the owner is busy elsewhere is latched:
	// the next Wait returns it without sleeping, and missed grid points
	// do not pile up.
	_ = v.Sleep(ctx, 35*time.Millisecond)
	before := v.Now()
	if err := tick.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := v.Since(before); got != 0 {
		t.Fatalf("latched tick slept %v, want immediate delivery", got)
	}
	if err := tick.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := v.Since(before); got <= 0 || got > 10*time.Millisecond {
		t.Fatalf("tick after latch came %v later, want within one period", got)
	}
}

func TestVirtualWithTimeoutBoundsSleep(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	ctx, cancel := v.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := v.Now()
	err := v.Sleep(ctx, time.Hour)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := v.Since(start); got != 25*time.Millisecond {
		t.Fatalf("deadline fired after %v, want 25ms", got)
	}
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("ctx.Err() = %v after deadline", ctx.Err())
	}
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(start.Add(25*time.Millisecond)) {
		t.Fatalf("Deadline() = %v,%v", dl, ok)
	}
}

func TestVirtualCancelWakesParked(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	ctx, cancel := v.WithCancel(context.Background())
	woken := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	v.Go(func() {
		defer wg.Done()
		woken <- v.Sleep(ctx, time.Hour)
	})
	// Give the worker a moment of virtual time to park, then cancel: the
	// worker must wake with the context error without the clock running
	// out the full hour.
	_ = v.Sleep(context.Background(), time.Millisecond)
	start := v.Now()
	cancel()
	v.Block(wg.Wait)
	if err := <-woken; err != context.Canceled {
		t.Fatalf("parked sleeper woke with %v, want Canceled", err)
	}
	if got := v.Since(start); got != 0 {
		t.Fatalf("cancel advanced virtual time by %v", got)
	}
}

func TestVirtualBlockDetaches(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	v.Go(func() {
		defer wg.Done()
		_ = v.Sleep(context.Background(), time.Second)
		close(done)
	})
	// Without Block this would deadlock: the driver stays active while
	// waiting, and virtual time could never advance to fire the sleeper.
	v.Block(func() { <-done })
	wg.Wait()
	if got := v.Since(time.Unix(0, 0).UTC()); got != time.Second {
		t.Fatalf("virtual time at %v, want 1s", got)
	}
}

// TestVirtualDeterministicInterleaving runs the same multi-goroutine
// schedule twice and requires the identical event order — the property
// the scale experiments' reproducibility rests on.
func TestVirtualDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		v := NewVirtual()
		v.Register()
		defer v.Unregister()
		var (
			mu    sync.Mutex
			order []string
		)
		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			id := byte('a' + i)
			period := time.Duration(3+i) * time.Millisecond
			tick := v.NewTicker(period)
			v.Go(func() {
				defer wg.Done()
				defer tick.Stop()
				for j := 0; j < 5; j++ {
					if tick.Wait(ctx) != nil {
						return
					}
					mu.Lock()
					order = append(order, string(id)+v.Now().Format(".000000"))
					mu.Unlock()
				}
			})
		}
		_ = v.Sleep(ctx, 50*time.Millisecond)
		v.Block(wg.Wait)
		return order
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical schedules diverged:\n%v\nvs\n%v", a, b)
	}
	if len(a) != 20 {
		t.Fatalf("recorded %d ticks, want 20", len(a))
	}
}

func TestRealClockBasics(t *testing.T) {
	c := System
	start := c.Now()
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.Since(start) <= 0 {
		t.Fatal("real clock did not advance")
	}
	ctx, cancel := c.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := c.Sleep(ctx, time.Second); err == nil {
		t.Fatal("sleep outlived its context deadline")
	}
	tick := c.NewTicker(time.Millisecond)
	defer tick.Stop()
	if err := tick.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := c.WithCancel(context.Background())
	ccancel()
	if err := tick.Wait(cctx); err != context.Canceled {
		t.Fatalf("Wait on cancelled ctx = %v", err)
	}
}

// TestVirtualGoStartsInSpawnOrder pins the scheduling property the
// full-stack determinism of E12 rests on: goroutines started with Go do
// not run concurrently with their spawner — each parks on a start event
// and is admitted by the scheduler one at a time, in spawn order, once
// everything else is parked. Shared-state access order (and with it
// every seeded RNG draw in a simulation) is therefore a pure function
// of the schedule, not of OS thread timing.
func TestVirtualGoStartsInSpawnOrder(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	var (
		mu    sync.Mutex
		order []int
	)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	// No child may have run yet: the driver has not parked, so the
	// scheduler has had no quiescent instant to admit one.
	mu.Lock()
	started := len(order)
	mu.Unlock()
	if started != 0 {
		t.Fatalf("%d children ran before the spawner parked", started)
	}
	v.Block(wg.Wait)
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("children started in order %v, want spawn order %v", order, want)
	}
	if got := v.Since(time.Unix(0, 0).UTC()); got != 0 {
		t.Fatalf("start events consumed %v of virtual time, want none", got)
	}
}

// TestMutexHandsOverFIFO: three goroutines queue on a held Mutex in
// spawn order; each Unlock hands the lock to the oldest waiter, which
// resumes already owning it.
func TestMutexHandsOverFIFO(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	ctx := context.Background()
	m := NewMutex(v)
	m.Lock()
	var (
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			m.Lock()
			order = append(order, i) // guarded by m
			_ = v.Sleep(ctx, time.Millisecond)
			m.Unlock()
		})
	}
	// Every waiter is queued once the driver parks past their start
	// events; only then does the driver let go.
	_ = v.Sleep(ctx, time.Millisecond)
	if len(order) != 0 {
		t.Fatalf("waiters %v got a held lock", order)
	}
	m.Unlock()
	v.Block(wg.Wait)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("lock handed over in order %v, want %v", order, want)
	}
	if got := v.Since(time.Unix(0, 0).UTC()); got != 4*time.Millisecond {
		t.Fatalf("virtual time at %v, want 4ms (1ms queueing + 3 holds of 1ms)", got)
	}
}

// TestGatherAdmitsInOrderAndJoins: Gather's workers start in slice order
// even when the first sleeps longest, and the caller resumes only after
// the last one has finished.
func TestGatherAdmitsInOrderAndJoins(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	ctx := context.Background()
	var (
		mu      sync.Mutex
		started []int
		done    int
	)
	fs := make([]func(), 4)
	for i := range fs {
		fs[i] = func() {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			_ = v.Sleep(ctx, time.Duration(len(fs)-i)*time.Millisecond)
			mu.Lock()
			done++
			mu.Unlock()
		}
	}
	v.Gather(fs...)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(started, want) {
		t.Fatalf("workers started in order %v, want %v", started, want)
	}
	if done != len(fs) {
		t.Fatalf("caller resumed with %d of %d workers finished", done, len(fs))
	}
	if got := v.Since(time.Unix(0, 0).UTC()); got != 4*time.Millisecond {
		t.Fatalf("caller resumed at %v, want 4ms (the slowest worker)", got)
	}
}

// TestWithTimeoutCancelWakesExactContext: cancelling a WithTimeout
// context wakes the goroutine parked on exactly that context, not one
// parked on another WithTimeout context, nor one parked on a
// context.WithValue wrapper of it (that one sleeps out its time).
func TestWithTimeoutCancelWakesExactContext(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	bg := context.Background()
	a, cancelA := v.WithTimeout(bg, 10*time.Second)
	b, cancelB := v.WithTimeout(bg, 10*time.Second)
	defer cancelB()
	type wake struct {
		at  time.Duration
		err error
	}
	var (
		mu    sync.Mutex
		wakes = map[string]wake{}
		wg    sync.WaitGroup
	)
	for name, ctx := range map[string]context.Context{
		"a":       a,
		"b":       b,
		"value-a": context.WithValue(a, struct{}{}, 1),
	} {
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			err := v.Sleep(ctx, 5*time.Second)
			mu.Lock()
			wakes[name] = wake{v.Since(time.Unix(0, 0).UTC()), err}
			mu.Unlock()
		})
	}
	_ = v.Sleep(bg, time.Millisecond)
	cancelA()
	v.Block(wg.Wait)
	want := map[string]wake{
		"a":       {time.Millisecond, context.Canceled},
		"b":       {5 * time.Second, nil},
		"value-a": {5 * time.Second, nil},
	}
	if !reflect.DeepEqual(wakes, want) {
		t.Fatalf("wakes %v, want %v", wakes, want)
	}
}

// TestTickerLatchStaysOnGrid: a tick that came due while the owner slept
// is delivered without parking, and the tick after it stays on the
// period grid.
func TestTickerLatchStaysOnGrid(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	ctx := context.Background()
	tick := v.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	_ = v.Sleep(ctx, 15*time.Millisecond) // the 10ms tick latches
	epoch := time.Unix(0, 0).UTC()
	for _, want := range []time.Duration{15 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		if err := tick.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if got := v.Since(epoch); got != want {
			t.Fatalf("tick delivered at %v, want %v", got, want)
		}
	}
}

// TestSleepUnderFarWallClockDeadline: a foreign wall-clock deadline in
// year 9999 lies beyond the virtual timeline's int64 range; it must read
// as no deadline, not wrap into the virtual past.
func TestSleepUnderFarWallClockDeadline(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	ctx, cancel := context.WithDeadline(context.Background(), time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
	defer cancel()
	start := v.Now()
	if err := v.Sleep(ctx, 3*time.Second); err != nil {
		t.Fatalf("Sleep = %v, want nil", err)
	}
	if got := v.Since(start); got != 3*time.Second {
		t.Fatalf("slept %v of virtual time, want exactly 3s", got)
	}
}

// TestSleepMaxDurationHitsDeadline: the longest possible sleep under a
// 1 s virtual timeout ends at the deadline, with DeadlineExceeded. The
// clock is past the epoch first, so now+d lies beyond the int64 range.
func TestSleepMaxDurationHitsDeadline(t *testing.T) {
	v := NewVirtual()
	driver(t, v)
	_ = v.Sleep(context.Background(), time.Millisecond)
	ctx, cancel := v.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := v.Now()
	if err := v.Sleep(ctx, math.MaxInt64); err != context.DeadlineExceeded {
		t.Fatalf("Sleep = %v, want DeadlineExceeded", err)
	}
	if got := v.Since(start); got != time.Second {
		t.Fatalf("woke after %v, want 1s", got)
	}
}

// BenchmarkVirtualSleep is the benchmark's vclock.ns_per_event probe as
// a Go benchmark: 256 goroutines sleeping 1–10 ms at a time on one
// virtual clock; one op is one wake.
func BenchmarkVirtualSleep(b *testing.B) {
	const sleepers = 256
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	ctx := context.Background()
	fs := make([]func(), sleepers)
	for g := range fs {
		n := b.N / sleepers
		if g < b.N%sleepers {
			n++
		}
		fs[g] = func() {
			for i := 0; i < n; i++ {
				_ = v.Sleep(ctx, time.Duration(1+(g*7+i*13)%10)*time.Millisecond)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	v.Gather(fs...)
}
