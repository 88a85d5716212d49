// Package metrics provides the per-peer instrumentation spine: fixed-bucket
// latency and value histograms, counters, counter families and a
// registry that aggregates them into one exportable view.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram records samples into fixed buckets and reports order
// statistics. It is safe for concurrent use and holds constant memory —
// bucket counts plus sum/min/max — so it can stay on in every peer of a
// 1k–10k-peer ring. Quantiles are conservative (bucket upper bound,
// clamped to the observed min/max); the mean is exact.
//
// Samples are durations (NewBucketedHistogram) or plain int64 values
// such as batch sizes and hop counts (NewValueHistogram).
type Histogram struct {
	mu sync.Mutex

	// counts[i] tallies samples v <= bounds[i]; counts[len(bounds)] is
	// the overflow bucket.
	bounds []int64
	counts []uint64
	n      int64
	sum    int64
	min    int64
	max    int64

	value bool // samples are plain values, not durations
}

// NewBucketedHistogram returns a fixed-bucket duration histogram with the
// given bucket upper bounds (sorted internally; an overflow bucket is
// implicit).
func NewBucketedHistogram(bounds ...time.Duration) *Histogram {
	b := make([]int64, len(bounds))
	for i, d := range bounds {
		b[i] = int64(d)
	}
	return newBucketed(b, false)
}

// NewValueHistogram returns a fixed-bucket histogram over plain int64
// values (sizes, counts) rather than durations.
func NewValueHistogram(bounds ...int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return newBucketed(b, true)
}

func newBucketed(bounds []int64, value bool) *Histogram {
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1), value: value}
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.observe(int64(d)) }

// ObserveValue records one plain-value sample.
func (h *Histogram) ObserveValue(v int64) { h.observe(v) }

func (h *Histogram) observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	idx := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[idx]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.n)
}

// IsValue reports whether samples are plain values rather than durations.
func (h *Histogram) IsValue() bool { return h.value }

// Buckets returns copies of the bucket upper bounds and per-bucket
// (non-cumulative) counts, plus the sample sum and count.
func (h *Histogram) Buckets() (bounds []int64, counts []uint64, sum, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]int64(nil), h.bounds...)
	counts = append([]uint64(nil), h.counts...)
	return bounds, counts, h.sum, h.n
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples, or 0 when
// empty: the matching bucket's upper bound, clamped to the observed
// min/max.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.quantileInt(q))
}

// QuantileValue is Quantile for plain-value histograms.
func (h *Histogram) QuantileValue(q float64) int64 { return h.quantileInt(q) }

func (h *Histogram) quantileInt(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += int64(c)
		if cum >= target {
			if i >= len(h.bounds) || h.bounds[i] > h.max {
				return h.max
			}
			if h.bounds[i] < h.min {
				return h.min
			}
			return h.bounds[i]
		}
	}
	return h.max
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() time.Duration { return time.Duration(h.meanInt()) }

// MeanValue is Mean for plain-value histograms.
func (h *Histogram) MeanValue() int64 { return h.meanInt() }

func (h *Histogram) meanInt() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.Quantile(1) }

// Min returns the smallest sample.
func (h *Histogram) Min() time.Duration { return h.Quantile(0) }

// Summary renders count/mean/p50/p95/p99/max on one line.
func (h *Histogram) Summary() string {
	if h.value {
		return fmt.Sprintf("n=%d mean=%d p50=%d p95=%d p99=%d max=%d",
			h.Count(), h.MeanValue(), h.QuantileValue(0.5),
			h.QuantileValue(0.95), h.QuantileValue(0.99), h.QuantileValue(1))
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		h.Count(), round(h.Mean()), round(h.Quantile(0.5)),
		round(h.Quantile(0.95)), round(h.Quantile(0.99)), round(h.Max()))
}

func round(d time.Duration) time.Duration {
	switch {
	case d > time.Second:
		return d.Round(time.Millisecond)
	case d > time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

// Counter is a concurrency-safe monotonically increasing counter.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Family is a named set of counters: one metric family whose members are
// created on first use. Subsystems that count heterogeneous actions (the
// maintenance engine's passes, repairs, truncations, ...) use it instead
// of pre-declaring one Counter field per action.
type Family struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewFamily returns an empty counter family.
func NewFamily() *Family { return &Family{counters: make(map[string]*Counter)} }

// Counter returns the member with the given name, creating it at zero on
// first use.
func (f *Family) Counter(name string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[name]
	if !ok {
		c = &Counter{}
		f.counters[name] = c
	}
	return c
}

// Snapshot returns the current value of every member.
func (f *Family) Snapshot() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.counters))
	// Building a map from a map: order-free by type, Value is a pure
	// atomic load. lint:unordered-ok
	for name, c := range f.counters {
		out[name] = c.Value()
	}
	return out
}

// Merge adds every member of other into f (creating members as needed),
// so per-peer families can be aggregated into one cluster-wide view.
func (f *Family) Merge(other *Family) {
	if other == nil {
		return
	}
	// Counter.Add is commutative, so merge order is unobservable.
	// lint:unordered-ok
	for name, v := range other.Snapshot() {
		f.Counter(name).Add(v)
	}
}

// String renders the family as space-separated name=value pairs in name
// order, omitting zero-valued members.
func (f *Family) String() string {
	snap := f.Snapshot()
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, snap[name])
	}
	return strings.Join(parts, " ")
}
