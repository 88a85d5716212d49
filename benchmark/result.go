package main

import (
	"fmt"
	"sort"
	"time"
)

// seedOut is what one seed of a workload measured (tcp-commit has one
// per run). Durations in the sample pools are on the workload's clock.
type seedOut struct {
	// commit is enqueue (gateway) or first Commit call (direct) to the
	// master's ack; on serve-hot the hot document's commits only, the
	// tail documents' go to bystander. allCommit holds every document's.
	commit, bystander, allCommit samples
	// staleness is ack of a timestamp to the first moment another
	// participant following the document holds it.
	staleness samples
	// catchup is a cold reader's open to its reaching the timestamp that
	// was current when it was opened.
	catchup samples
	// converge is, per document, last ack to every editor replica and
	// three cold readers holding identical text at the final timestamp.
	converge samples
	// failover is Master-key kill to the next ack on that document.
	failover samples

	lines, acks int64
	// span is first enqueue to last ack.
	span time.Duration

	// setups holds the wall time of each cluster construction, up to the
	// first workload operation.
	setups                    []time.Duration
	measuredWall, measuredCPU time.Duration
	// rssMB, when set, is the peak resident set read at a fixed amount of
	// work instead of at the end of the run (tcp-commit).
	rssMB float64
	// stretch holds gated wall-clock metrics read per stretch of the run (a
	// seed on the virtual workloads, a second on tcp-commit); the run
	// reports the median stretch in place of the value pooled over the run.
	// On a shared host interference comes in bursts of seconds that move a
	// run's pooled value by a third; the median stretch ignores any burst
	// shorter than half the run.
	stretch map[string][]float64

	// attempted and failed count operations; violations counts the failed
	// ones that are wrong output (a lost or doubled line, a timestamp
	// granted twice, replicas that differ) rather than an operation that
	// did not complete.
	attempted, failed, violations int
	anomalies                     []string
	// notes are printed with the report and counted nowhere: a probe call
	// that failed is not an operation of the workload.
	notes []string

	// counts are raw counter sums the per-layer metrics derive from.
	counts map[string]float64
	// stage is the time the program's own tracer charged to each commit
	// stage (traced runs only).
	stage map[string]time.Duration
	// probes are the layer probes' results, by per-layer metric name
	// (traced runs only).
	probes map[string]float64
}

// perStretch notes one stretch's reading of a gated wall-clock metric.
func (o *seedOut) perStretch(name string, v float64) {
	if o.stretch == nil {
		o.stretch = map[string][]float64{}
	}
	o.stretch[name] = append(o.stretch[name], v)
}

func (o *seedOut) setProbe(name string, v float64) {
	if o.probes == nil {
		o.probes = map[string]float64{}
	}
	o.probes[name] = v
}

func (o *seedOut) bump(name string, v float64) {
	if o.counts == nil {
		o.counts = map[string]float64{}
	}
	o.counts[name] += v
}

// maxOf keeps the larger of a gauge's readings.
func (o *seedOut) maxOf(name string, v float64) {
	if o.counts == nil {
		o.counts = map[string]float64{}
	}
	if v > o.counts[name] {
		o.counts[name] = v
	}
}

// anomaly records one operation that did not complete.
func (o *seedOut) anomaly(seed int64, format string, args ...any) {
	o.failed++
	o.anomalies = append(o.anomalies, fmt.Sprintf("seed %d: ", seed)+fmt.Sprintf(format, args...))
}

// note records something worth reading that is not an operation.
func (o *seedOut) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// violation records one operation whose output is wrong.
func (o *seedOut) violation(seed int64, format string, args ...any) {
	o.violations++
	o.anomaly(seed, "WRONG OUTPUT: "+format, args...)
}

// gauges are counts that pool by maximum, not by sum.
var gauges = map[string]bool{"goroutines": true, "ckpt_lag_max": true}

// merge pools another seed into o.
func (o *seedOut) merge(s *seedOut) {
	o.commit = append(o.commit, s.commit...)
	o.bystander = append(o.bystander, s.bystander...)
	o.allCommit = append(o.allCommit, s.allCommit...)
	o.staleness = append(o.staleness, s.staleness...)
	o.catchup = append(o.catchup, s.catchup...)
	o.converge = append(o.converge, s.converge...)
	o.failover = append(o.failover, s.failover...)
	o.lines += s.lines
	o.acks += s.acks
	o.span += s.span
	o.setups = append(o.setups, s.setups...)
	o.measuredWall += s.measuredWall
	o.measuredCPU += s.measuredCPU
	if s.rssMB > o.rssMB {
		o.rssMB = s.rssMB
	}
	o.attempted += s.attempted
	o.failed += s.failed
	o.violations += s.violations
	o.anomalies = append(o.anomalies, s.anomalies...)
	o.notes = append(o.notes, s.notes...)
	for k, v := range s.counts {
		if gauges[k] {
			o.maxOf(k, v)
		} else {
			o.bump(k, v)
		}
	}
	for k, v := range s.probes {
		o.setProbe(k, v)
	}
	for k, vs := range s.stretch {
		for _, v := range vs {
			o.perStretch(k, v)
		}
	}
	for k, v := range s.stage {
		if o.stage == nil {
			o.stage = map[string]time.Duration{}
		}
		o.stage[k] += v
	}
}

// fingerprint lists everything about a seed that must repeat exactly on
// the virtual clock: every sample pool, count and failure. -verify
// compares these line by line to name what diverged.
func (o *seedOut) fingerprint() []string {
	var out []string
	pool := func(name string, s samples) {
		c := append(samples(nil), s...)
		sort.Float64s(c)
		var sum float64
		for _, v := range c {
			sum += v
		}
		out = append(out, fmt.Sprintf("%s n=%d sum=%.6f p50=%.6f max=%.6f", name, len(c), sum, c.percentile(0.5), c.percentile(1)))
	}
	pool("commit", o.commit)
	pool("bystander", o.bystander)
	pool("all_commit", o.allCommit)
	pool("staleness", o.staleness)
	pool("catchup", o.catchup)
	pool("converge", o.converge)
	pool("failover", o.failover)
	out = append(out,
		fmt.Sprintf("lines=%d", o.lines), fmt.Sprintf("acks=%d", o.acks), fmt.Sprintf("span=%d", o.span),
		fmt.Sprintf("attempted=%d", o.attempted), fmt.Sprintf("failed=%d", o.failed))
	for _, a := range o.anomalies {
		out = append(out, "anomaly: "+a)
	}
	keys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		// Not the simulation's: the runtime's goroutine count, and the
		// program's own spans, which exist only when traced.
		if k != "goroutines" && k != "program_spans" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, fmt.Sprintf("count %s=%v", k, o.counts[k]))
	}
	return out
}
