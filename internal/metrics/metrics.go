// Package metrics provides the measurement primitives of the experiment
// harness and the per-peer instrumentation spine: latency histograms
// (exact-sample or fixed-bucket), counters, counter families, a registry
// that aggregates them into one exportable view, and plain-text table
// rendering for the paper's result series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pltr/internal/vclock"
)

// Histogram records samples and reports order statistics. It is safe for
// concurrent use and has two modes:
//
//   - Exact mode (NewHistogram): keeps every sample. Right for experiment
//     harnesses that record thousands of points and want exact quantiles.
//   - Fixed-bucket mode (NewBucketedHistogram / NewValueHistogram):
//     constant memory per histogram — bucket counts plus sum/min/max —
//     for always-on per-peer instrumentation at 1k–10k peers, where
//     keeping every sample is unsustainable. Quantiles are conservative
//     (bucket upper bound, clamped to the observed min/max).
//
// Samples are durations by default; NewValueHistogram records plain
// int64 values (batch sizes, hop counts) instead.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool

	// Fixed-bucket mode state (bounds != nil). counts[i] tallies samples
	// v <= bounds[i]; counts[len(bounds)] is the overflow bucket.
	bounds []int64
	counts []uint64
	n      int64
	sum    int64
	min    int64
	max    int64

	value bool // samples are plain values, not durations
}

// NewHistogram returns an empty exact-sample duration histogram.
func NewHistogram() *Histogram { return &Histogram{} }

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
	if h.bounds == nil {
		h.samples = append(h.samples, time.Duration(v))
		h.sorted = false
		return
	}
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

// Time runs f and records its duration. Timing goes through the vclock
// seam so instrumented code never reads the wall clock directly.
func (h *Histogram) Time(f func()) {
	start := vclock.System.Now()
	f()
	h.Observe(vclock.System.Since(start))
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bounds != nil {
		return int(h.n)
	}
	return len(h.samples)
}

// IsBucketed reports whether the histogram is in fixed-bucket mode.
func (h *Histogram) IsBucketed() bool { return h.bounds != nil }

// IsValue reports whether samples are plain values rather than durations.
func (h *Histogram) IsValue() bool { return h.value }

// Buckets returns copies of the bucket upper bounds and per-bucket
// (non-cumulative) counts, plus the sample sum and count. bounds is nil
// for exact-mode histograms.
func (h *Histogram) Buckets() (bounds []int64, counts []uint64, sum, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bounds == nil {
		return nil, nil, 0, 0
	}
	bounds = append([]int64(nil), h.bounds...)
	counts = append([]uint64(nil), h.counts...)
	return bounds, counts, h.sum, h.n
}

// sortLocked must be called with h.mu held.
func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples, or 0 when
// empty. In bucket mode the result is the matching bucket's upper bound,
// clamped to the observed min/max.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.quantileInt(q))
}

// QuantileValue is Quantile for plain-value histograms.
func (h *Histogram) QuantileValue(q float64) int64 { return h.quantileInt(q) }

func (h *Histogram) quantileInt(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bounds == nil {
		if len(h.samples) == 0 {
			return 0
		}
		h.sortLocked()
		if q <= 0 {
			return int64(h.samples[0])
		}
		if q >= 1 {
			return int64(h.samples[len(h.samples)-1])
		}
		idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		return int64(h.samples[idx])
	}
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
	if h.bounds != nil {
		if h.n == 0 {
			return 0
		}
		return h.sum / h.n
	}
	if len(h.samples) == 0 {
		return 0
	}
	var sum int64
	for _, s := range h.samples {
		sum += int64(s)
	}
	return sum / int64(len(h.samples))
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

// ---------------------------------------------------------------------------
// Table rendering.

// Table accumulates rows and renders an aligned plain-text table, the
// output format of every harness experiment.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = round(v).String()
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
