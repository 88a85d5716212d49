package simtest

import (
	"fmt"
	"sort"
	"time"

	"p2pltr/internal/trace"
)

// Event is one observed milestone on a run's virtual timeline. Fields
// are plain values so two same-seed runs compare for identity.
type Event struct {
	Kind string // "commit", "author-killed", "crash", "join", "partition", "heal", "kill-master"
	Doc  string
	Site string
	TS   uint64
	At   time.Duration
}

// DocReport is the per-document outcome of a run.
type DocReport struct {
	Doc      string
	Doomed   bool // armed with a crash-boundary-author fault
	FinalTS  uint64
	Commits  int
	CkptPtr  uint64
	CkptLag  uint64
	LogSlots int
	// ConvLag is the virtual time from workload end until a cold reader
	// on a surviving peer converged (-1: never, within the budget).
	ConvLag time.Duration
	// StaleMax is the worst observed commit-to-delivery staleness of
	// the document's follower feeds (gateway plans only).
	StaleMax time.Duration
}

// Check is one invariant verdict. A run reports every check it
// evaluated, passed or not — campaign reports and the shrinker key off
// the names of the failed ones. Key names the violating document (or
// DHT key) when the invariant can attribute its failure to one; the
// forensics assembler slices the flight-recorder timeline on it.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Key    string `json:"key,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Result is everything one plan run produced.
type Result struct {
	Plan Plan
	Seed int64

	Events   []Event
	Docs     []DocReport
	Checks   []Check
	Counters map[string]int64

	// FlightEvents is the causally-ordered merge of every peer's flight
	// recorder (trace.Merge over all peers, crashed ones included —
	// their frozen rings often hold the most interesting evidence).
	// FlightDigest folds them with trace.DigestEvents and is part of
	// the run digest: two same-seed runs must agree on the full
	// lifecycle-event timeline, not just the workload milestones.
	FlightEvents []trace.SpanData
	FlightDigest uint64

	// TraceSpans counts the spans the run's shared tracer finished and
	// TraceDigest folds each, in completion order, with SpanData.Hash:
	// span and trace IDs, peers, instants and every stage mark. Same-seed
	// runs must agree on it; it is NOT folded into Digest, so adding or
	// moving a span does not move campaign fingerprints.
	TraceSpans  int64
	TraceDigest uint64

	// Forensics is assembled only for failing runs: the causal slice of
	// the merged timeline around the violating keys. Deliberately NOT
	// digest-folded — it is derived evidence, and keeping it out lets
	// tooling re-derive or drop it without perturbing fingerprints.
	Forensics *Forensics `json:",omitempty"`

	Commits  int
	Kills    int
	Delivers int
	Grants   int64
	Rejects  int64
	Sent     int64
	Dropped  int64

	// Digest folds the event timeline, per-doc reports, counters and
	// verdicts into one order-sensitive FNV-1a hash: the campaign
	// engine's per-seed trace fingerprint. Same plan + same seed must
	// reproduce it bitwise.
	Digest  uint64
	Virtual time.Duration
	Wall    time.Duration // the one nondeterministic field
}

// Pass reports whether every invariant held.
func (r *Result) Pass() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Violations returns the failed checks.
func (r *Result) Violations() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// ViolationNames returns the sorted names of the failed checks.
func (r *Result) ViolationNames() []string {
	var out []string
	for _, c := range r.Violations() {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// checkk is check with a violating-key attribution (empty when the
// invariant held or the failure is not attributable to one key).
func (r *Result) checkk(name, key string, ok bool, format string, args ...any) {
	if ok {
		key = ""
	}
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Key: key, Detail: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Digest.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type digest uint64

func newDigest() digest { return fnvOffset }

func (d digest) str(s string) digest {
	h := uint64(d)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return digest(h)
}

func (d digest) u64(v uint64) digest {
	h := uint64(d)
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return digest(h)
}

func (d digest) event(e Event) digest {
	return d.str(e.Kind).str(e.Doc).str(e.Site).u64(e.TS).u64(uint64(e.At))
}

// finalize folds the non-event outcomes into the running event digest.
func (r *Result) finalize(d digest) {
	for _, doc := range r.Docs {
		d = d.str(doc.Doc).u64(doc.FinalTS).u64(doc.CkptPtr).u64(uint64(doc.LogSlots)).
			u64(uint64(doc.ConvLag)).u64(uint64(doc.StaleMax)).u64(uint64(doc.Commits))
	}
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d = d.str(k).u64(uint64(r.Counters[k]))
	}
	for _, c := range r.Checks {
		ok := uint64(0)
		if c.OK {
			ok = 1
		}
		d = d.str(c.Name).u64(ok)
	}
	d = d.u64(uint64(r.Sent)).u64(uint64(r.Dropped)).u64(uint64(r.Grants)).
		u64(uint64(r.Rejects)).u64(uint64(r.Virtual)).u64(uint64(r.Delivers))
	d = d.u64(r.FlightDigest)
	r.Digest = uint64(d)
}
