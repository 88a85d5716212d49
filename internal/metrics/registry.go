package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry aggregates the instrumentation of many subsystems — counter
// families, gauges, histograms — into one exportable view. A peer builds
// one registry over its chord/dht/kts/gateway/maintain components and the
// node binary serves it as Prometheus text on -metrics-addr.
//
// Gauges are registered as functions so the registry always exports live
// values without subsystems pushing updates. Histogram sets are likewise
// functions, for sources (the tracer's per-stage aggregates) whose member
// histograms appear lazily.
type Registry struct {
	mu       sync.Mutex
	ints     map[string]intMetric
	hists    map[string]*Histogram
	histSets map[string]func() map[string]*Histogram
	families map[string]*Family
}

type intMetric struct {
	fn      func() int64
	counter bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ints:     make(map[string]intMetric),
		hists:    make(map[string]*Histogram),
		histSets: make(map[string]func() map[string]*Histogram),
		families: make(map[string]*Family),
	}
}

// AddGaugeFunc registers a point-in-time metric read through fn at export
// time (queue depths, cache sizes).
func (r *Registry) AddGaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ints[name] = intMetric{fn: fn}
}

// AddFamily registers a counter family; members export as
// <prefix>_<member>_total.
func (r *Registry) AddFamily(prefix string, f *Family) {
	if f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families[prefix] = f
}

// AddHistogram registers a histogram under the given name.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	if h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// AddHistogramSet registers a dynamic histogram source; each member m of
// fn() exports as <prefix>_<m>.
func (r *Registry) AddHistogramSet(prefix string, fn func() map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histSets[prefix] = fn
}

// Snapshot returns the current value of every integer metric (counters,
// gauges, and family members, families keyed <prefix>_<member>).
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.ints))
	// Building a map from maps: the result is order-free by type and the
	// reader functions are pure gauges. lint:unordered-ok
	for name, m := range r.ints {
		out[name] = m.fn()
	}
	for prefix, f := range r.families { // lint:unordered-ok (same: map into map)
		for member, v := range f.Snapshot() { // lint:unordered-ok
			out[sanitize(prefix+"_"+member)] = v
		}
	}
	return out
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, in sorted name order. Durations export in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type intLine struct {
		name string
		m    intMetric
	}
	ints := make([]intLine, 0, len(r.ints))
	// Collect-then-sort: every line lands in ints/hists, which are
	// sorted by name below before a byte is written — sanitize is a
	// pure string map. lint:unordered-ok
	for name, m := range r.ints {
		ints = append(ints, intLine{sanitize(name), m})
	}
	for prefix, f := range r.families { // lint:unordered-ok (sorted below)
		for member, v := range f.Snapshot() { // lint:unordered-ok
			v := v
			ints = append(ints, intLine{
				name: sanitize(prefix+"_"+member) + "_total",
				m:    intMetric{fn: func() int64 { return v }, counter: true},
			})
		}
	}
	type histLine struct {
		name string
		h    *Histogram
	}
	hists := make([]histLine, 0, len(r.hists))
	// lint:unordered-ok (sorted below, as above)
	for name, h := range r.hists {
		hists = append(hists, histLine{sanitize(name), h})
	}
	for prefix, fn := range r.histSets { // lint:unordered-ok (sorted below)
		for member, h := range fn() { // lint:unordered-ok
			hists = append(hists, histLine{sanitize(prefix + "_" + member), h})
		}
	}
	r.mu.Unlock()

	sort.Slice(ints, func(i, j int) bool { return ints[i].name < ints[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	for _, l := range ints {
		typ := "gauge"
		if l.m.counter {
			typ = "counter"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", l.name, typ, l.name, l.m.fn()); err != nil {
			return err
		}
	}
	for _, l := range hists {
		if err := writePromHistogram(w, l.name, l.h); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	bounds, counts, sum, n := h.Buckets()
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promBound(h, b), cum); err != nil {
			return err
		}
	}
	cum += counts[len(bounds)]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, cum, name, promSum(h, sum), name, n)
	return err
}

// promBound renders one sample value: seconds for durations, raw for
// plain-value histograms.
func promBound(h *Histogram, v int64) string {
	if h.IsValue() {
		return fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("%g", float64(v)/1e9)
}

func promSum(h *Histogram, sum int64) string { return promBound(h, sum) }

// sanitize maps a metric name into the Prometheus charset
// [a-zA-Z0-9_:], replacing everything else with '_'.
func sanitize(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
