package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// msBuckets returns bounds at every millisecond from 1 ms to n ms: a
// sample on a whole millisecond lands on its own bound, so quantiles
// read exactly.
func msBuckets(n int) []time.Duration {
	b := make([]time.Duration, n)
	for i := range b {
		b[i] = time.Duration(i+1) * time.Millisecond
	}
	return b
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewBucketedHistogram(msBuckets(100)...)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Quantile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("min/max %v %v", h.Min(), h.Max())
	}
	if h.Mean() != 50500*time.Microsecond {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewValueHistogram(1, 10)
	if h.QuantileValue(0.5) != 0 || h.MeanValue() != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram not zero")
	}
	if !strings.Contains(h.Summary(), "n=0") {
		t.Fatalf("summary %q", h.Summary())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewBucketedHistogram(msBuckets(10)...)
	h.Observe(5 * time.Millisecond)
	if h.Quantile(-1) != 5*time.Millisecond || h.Quantile(2) != 5*time.Millisecond {
		t.Fatalf("out-of-range quantiles")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewBucketedHistogram(10, 50, 100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Observe(time.Duration(i))
				_ = h.Quantile(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 800 {
		t.Fatalf("count %d", h.Count())
	}
}

// Property: the q-quantile is >= the fraction q of samples.
func TestQuantileOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewBucketedHistogram(100, 1000, 10000, 30000)
		for _, v := range raw {
			h.Observe(time.Duration(v))
		}
		p50, p95 := h.Quantile(0.5), h.Quantile(0.95)
		if p50 > p95 {
			return false
		}
		return h.Min() <= p50 && p95 <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1000 {
		t.Fatalf("counter %d", c.Value())
	}
}

func TestSummaryFormat(t *testing.T) {
	h := NewBucketedHistogram(time.Millisecond)
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Summary()
	for _, part := range []string{"n=10", "mean=", "p50=", "p95=", "p99=", "max="} {
		if !strings.Contains(s, part) {
			t.Fatalf("summary %q missing %s", s, part)
		}
	}
}

func TestFamily(t *testing.T) {
	f := NewFamily()
	f.Counter("repairs").Add(2)
	f.Counter("repairs").Add(1)
	f.Counter("passes").Add(5)
	f.Counter("idle") // created but zero: omitted from String
	snap := f.Snapshot()
	if snap["repairs"] != 3 || snap["passes"] != 5 || snap["idle"] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
	if got, want := f.String(), "passes=5 repairs=3"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}

	other := NewFamily()
	other.Counter("repairs").Add(4)
	other.Counter("errors").Add(1)
	f.Merge(other)
	f.Merge(nil) // tolerated
	snap = f.Snapshot()
	if snap["repairs"] != 7 || snap["errors"] != 1 || snap["passes"] != 5 {
		t.Fatalf("merged snapshot = %v", snap)
	}
}

// Merge and Snapshot must hold up while writers hammer both families —
// per-peer families are merged into cluster views mid-run.
func TestFamilyMergeSnapshotConcurrent(t *testing.T) {
	src := NewFamily()
	dst := NewFamily()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src.Counter("a").Add(1)
				dst.Counter("b").Add(1)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				dst.Merge(src)
				_ = dst.Snapshot()
				_ = src.String()
			}
		}()
	}
	wg.Wait()
	// Deterministic final merge on quiesced families.
	final := NewFamily()
	final.Merge(src)
	if got := final.Snapshot()["a"]; got != 800 {
		t.Fatalf("src a = %d, want 800", got)
	}
	if got := dst.Snapshot()["b"]; got != 800 {
		t.Fatalf("dst b = %d, want 800", got)
	}
}

func TestBucketedHistogramQuantiles(t *testing.T) {
	h := NewBucketedHistogram(10*time.Millisecond, 100*time.Millisecond, time.Second)
	if h.IsValue() {
		t.Fatal("duration histogram reports value mode")
	}
	for i := 1; i <= 90; i++ {
		h.Observe(5 * time.Millisecond) // <=10ms bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(50 * time.Millisecond) // <=100ms bucket
	}
	h.Observe(5 * time.Second) // overflow
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 10*time.Millisecond {
		t.Fatalf("p50 = %v, want 10ms bucket bound", got)
	}
	if got := h.Quantile(0.95); got != 100*time.Millisecond {
		t.Fatalf("p95 = %v, want 100ms bucket bound", got)
	}
	// Overflow bucket reports the observed max, and extremes clamp.
	if got := h.Quantile(0.999); got != 5*time.Second {
		t.Fatalf("p99.9 = %v, want observed max", got)
	}
	if h.Min() != 5*time.Millisecond || h.Max() != 5*time.Second {
		t.Fatalf("min/max %v %v", h.Min(), h.Max())
	}
	wantMean := (90*5*time.Millisecond + 9*50*time.Millisecond + 5*time.Second) / 100
	if h.Mean() != wantMean {
		t.Fatalf("mean %v, want %v (exact sum/n, not bucketed)", h.Mean(), wantMean)
	}
	bounds, counts, sum, n := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 || n != 100 || sum == 0 {
		t.Fatalf("Buckets() = %v %v %d %d", bounds, counts, sum, n)
	}
	if counts[0] != 90 || counts[1] != 9 || counts[3] != 1 {
		t.Fatalf("bucket counts %v", counts)
	}
}

func TestValueHistogram(t *testing.T) {
	h := NewValueHistogram(1, 2, 4, 8, 16)
	for _, v := range []int64{1, 1, 3, 5, 7, 12, 40} {
		h.ObserveValue(v)
	}
	if !h.IsValue() {
		t.Fatal("not value mode")
	}
	// Exact p50 is 5; the bucketed answer is its bucket's upper bound.
	if got := h.QuantileValue(0.5); got != 8 {
		t.Fatalf("p50 = %d, want 8 (bucket bound)", got)
	}
	if got := h.QuantileValue(1); got != 40 {
		t.Fatalf("max = %d, want 40", got)
	}
	if h.MeanValue() != 69/7 {
		t.Fatalf("mean %d", h.MeanValue())
	}
	s := h.Summary()
	if !strings.Contains(s, "n=7") || strings.Contains(s, "ns") {
		t.Fatalf("value summary rendered as durations: %q", s)
	}
}

func TestBucketedHistogramEmpty(t *testing.T) {
	h := NewBucketedHistogram(time.Millisecond)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty bucketed histogram not zero")
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.AddGaugeFunc("p2pltr_kts_queue_depth", func() int64 { return 3 })
	fam := NewFamily()
	fam.Counter("route-hits").Add(5)
	r.AddFamily("p2pltr_gateway", fam)
	bh := NewBucketedHistogram(10*time.Millisecond, time.Second)
	bh.Observe(5 * time.Millisecond)
	bh.Observe(2 * time.Second)
	r.AddHistogram("p2pltr_commit_seconds", bh)
	sh := NewBucketedHistogram(50 * time.Millisecond)
	sh.Observe(30 * time.Millisecond)
	r.AddHistogramSet("p2pltr_trace", func() map[string]*Histogram {
		return map[string]*Histogram{"commit/rpc": sh}
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE p2pltr_kts_queue_depth gauge\np2pltr_kts_queue_depth 3\n",
		"# TYPE p2pltr_gateway_route_hits_total counter\np2pltr_gateway_route_hits_total 5\n",
		"# TYPE p2pltr_commit_seconds histogram",
		`p2pltr_commit_seconds_bucket{le="0.01"} 1`,
		`p2pltr_commit_seconds_bucket{le="+Inf"} 2`,
		"p2pltr_commit_seconds_count 2",
		"# TYPE p2pltr_trace_commit_rpc histogram",
		`p2pltr_trace_commit_rpc_bucket{le="0.05"} 1`,
		"p2pltr_trace_commit_rpc_sum 0.03\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	snap := r.Snapshot()
	if snap["p2pltr_kts_queue_depth"] != 3 || snap["p2pltr_gateway_route_hits"] != 5 {
		t.Fatalf("snapshot %v", snap)
	}
}
