package simtest

import (
	"sort"

	"p2pltr/internal/trace"
)

// Forensics is the failure evidence bundle of a failing run: the causal
// slice of the merged flight-recorder timeline around the violating
// keys, plus every cross-peer span that touched them. It rides on
// Result (and on the shrinker's minimal repro) so `p2pltr-sim explain`
// and the CI smoke step can print what actually happened to the
// violated document without re-instrumenting anything.
type Forensics struct {
	// Violations are the failed checks the slice was derived from.
	Violations []Check
	// Keys are the violating documents/DHT keys, sorted and deduplicated.
	Keys []string
	// Slice is the causal slice of the merged timeline: every event on a
	// violating key plus, transitively, every event sharing a trace ID
	// with one of those (trace.CausalSlice).
	Slice []trace.SpanData
	// Spans are the recorded spans whose trace ID appears in the slice
	// or whose key is a violating key, oldest first — the cross-peer
	// view of the same incidents (serve/validate/commit segments carry
	// the peer address that executed them).
	Spans []trace.SpanData
}

// collectFlight merges every peer's flight recorder into the result's
// causally-ordered timeline and folds its digest. Crashed peers are
// included on purpose: their rings are frozen at the moment of death,
// which is usually the moment under investigation.
func (r *runner) collectFlight() {
	recs := make([]*trace.Recorder, 0, len(r.c.Peers))
	for _, p := range r.c.Peers {
		if p.Flight != nil {
			recs = append(recs, p.Flight)
		}
	}
	r.res.FlightEvents = trace.Merge(recs...)
	r.res.FlightDigest = trace.DigestEvents(r.res.FlightEvents)
}

// assembleForensics builds the failure bundle after the invariant suite
// ran. A passing run gets none; a failing run whose violations carry no
// key attribution still gets the bundle (empty slice) so tooling can
// tell "nothing attributable" from "nobody looked".
func (r *runner) assembleForensics() {
	vio := r.res.Violations()
	if len(vio) == 0 {
		return
	}
	keySet := map[string]bool{}
	for _, c := range vio {
		if c.Key != "" {
			keySet[c.Key] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	slice := trace.CausalSlice(r.res.FlightEvents, keys...)
	r.res.Forensics = &Forensics{
		Violations: vio,
		Keys:       keys,
		Slice:      slice,
		Spans:      r.relevantSpans(slice, keySet),
	}
}

// relevantSpans pulls the spans belonging to the causal slice out of
// the run's shared tracer: any span on a violating key, or on a trace
// ID some sliced event carries. Recent is newest first; the bundle
// reads oldest first like the slice itself.
func (r *runner) relevantSpans(slice []trace.SpanData, keySet map[string]bool) []trace.SpanData {
	if r.tracer == nil {
		return nil
	}
	traces := map[uint64]bool{}
	for _, ev := range slice {
		if ev.Trace != 0 {
			traces[ev.Trace] = true
		}
	}
	recent := r.tracer.Recent(0)
	var out []trace.SpanData
	for i := len(recent) - 1; i >= 0; i-- {
		sd := recent[i]
		if traces[sd.Trace] || keySet[sd.Key] {
			out = append(out, sd)
		}
	}
	return out
}
