// Package simtest turns the stack's bitwise determinism under
// vclock.Virtual from a test property into a bug-finding engine.
//
// It has four parts, in the spirit of TestGround's declarative test
// plans and FoundationDB's seeded simulation campaigns:
//
//   - Plan: a declarative, JSON-serializable experiment description —
//     peer/gateway counts, the loss rate, editor/viewer mixes, churn
//     batches and timed fault events (boundary authors killed at their
//     checkpoint commit, partition windows, KTS master kills) — that
//     compiles to a runnable scenario over the existing
//     vclock/simnet/core/gateway stack (run.go).
//   - Invariants: a checker suite evaluated at plan end — all-replica
//     convergence, checkpoint lag under one interval, no log slots
//     leaked below the truncation floor, KTS timestamp continuity and
//     monotonicity, and the follower-feed staleness bound
//     (invariants.go). A run never aborts on a violation; it reports
//     every verdict, which is what makes failures shrinkable.
//   - Campaign: a seed-sweep engine that runs N seeds of one plan on
//     parallel workers, collecting per-seed verdicts and trace digests
//     (campaign.go).
//   - Shrink: an auto-minimizer that, given a failing (plan, seed),
//     bisects the event schedule — dropping fault events and churn
//     batches, halving batch sizes, peers, docs and edit counts — to a
//     minimal plan that still fails the same invariant under the same
//     seed, emitted as a plan file (shrink.go).
package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Fault event kinds.
const (
	// FaultCrashBoundaryAuthor arms the paper's nastiest liveness case
	// for one document: every editor session on Doc is killed at its
	// checkpoint-boundary commit, before it can snapshot (and its
	// replica never produces checkpoints), so only the maintenance
	// engine's fallback producer can keep the checkpoint chain alive.
	// Armed for the whole run; AtMS is ignored.
	FaultCrashBoundaryAuthor = "crash-boundary-author"
	// FaultPartition splits the live peers into two groups at AtMS —
	// the first Fraction of them (by index) against the rest — and
	// heals the split after DurationMS.
	FaultPartition = "partition"
	// FaultKillMaster fail-stops the peer currently holding the KTS
	// master role for Doc at AtMS (a no-op if no live peer masters it).
	FaultKillMaster = "kill-master"
)

// ChurnBatch is one scheduled membership shake: at AtMS, Crash random
// non-host peers fail-stop and Join fresh full-stack peers join.
type ChurnBatch struct {
	AtMS  int64 `json:"at_ms"`
	Crash int   `json:"crash,omitempty"`
	Join  int   `json:"join,omitempty"`
}

// FaultEvent is one typed, timed fault in a plan's schedule.
type FaultEvent struct {
	Kind string `json:"kind"`
	// Doc is the target document index (crash-boundary-author,
	// kill-master). Events naming a doc outside the plan's range are
	// dropped at compile time, which is what lets the shrinker halve
	// Docs without re-targeting the schedule.
	Doc        int   `json:"doc,omitempty"`
	AtMS       int64 `json:"at_ms,omitempty"`
	DurationMS int64 `json:"duration_ms,omitempty"`
	// Fraction is the partition minority share (default 0.25).
	Fraction float64 `json:"fraction,omitempty"`
}

// Override is the partial plan a `-short` run applies on top of the
// full parameters (CI smoke sizes). Zero fields keep the full value.
type Override struct {
	Peers            int `json:"peers,omitempty"`
	Gateways         int `json:"gateways,omitempty"`
	Docs             int `json:"docs,omitempty"`
	EditorsPerDoc    int `json:"editors_per_doc,omitempty"`
	EditsPerEditor   int `json:"edits_per_editor,omitempty"`
	ViewersPerEditor int `json:"viewers_per_editor,omitempty"`
	// ChurnScale multiplies every churn batch's Crash/Join counts
	// (rounding down, keeping at least 1 when the full count was
	// positive). 0 keeps the full counts.
	ChurnScale float64 `json:"churn_scale,omitempty"`
}

// Plan is a declarative experiment: what one run varies — topology,
// workload mix, loss, churn and faults — as one serializable testcase.
// The paper's prototype lets an operator "specify the number of peers
// or network latencies, or provoke failures"; a plan keeps the peers and
// the failures, while latency, like the rest of the scenario (think
// times, checkpoint and truncation periods, virtual-time budgets), is
// one fixed model set by the constants below.
// Durations are integer milliseconds so plan files stay hand-editable.
type Plan struct {
	Name  string `json:"name"`
	Notes string `json:"notes,omitempty"`
	// Seed is the default workload/latency seed; `sweep` and explicit
	// -seed flags override it per run.
	Seed int64 `json:"seed,omitempty"`

	// Topology and workload mix.
	Peers int `json:"peers"`
	// Gateways > 0 routes every editor through the serving layer
	// (session batching + follower feeds) instead of raw replicas.
	Gateways         int `json:"gateways,omitempty"`
	Docs             int `json:"docs"`
	EditorsPerDoc    int `json:"editors_per_doc"`
	EditsPerEditor   int `json:"edits_per_editor"`
	ViewersPerEditor int `json:"viewers_per_editor,omitempty"`
	// DeleteFraction is the probability an edit deletes instead of
	// inserting (direct mode; workload.Editor semantics).
	DeleteFraction float64 `json:"delete_fraction,omitempty"`

	// LossRate is the sustained message-drop probability applied after
	// the warm-up window.
	LossRate float64 `json:"loss_rate,omitempty"`

	// DisableMaintain unmounts the self-healing engine — the knob that
	// lets a plan deliberately violate the checkpoint-lag invariant
	// (crash-boundary-author faults with nobody left to fallback).
	DisableMaintain bool `json:"disable_maintain,omitempty"`
	AdmissionLimit  int  `json:"admission_limit,omitempty"`

	// Schedule.
	Churn  []ChurnBatch `json:"churn,omitempty"`
	Faults []FaultEvent `json:"faults,omitempty"`

	// Short is the reduced variant `run -short` / `sweep -short` apply
	// (CI smoke sizes).
	Short *Override `json:"short,omitempty"`
}

// The fixed scenario every plan runs in.
const (
	// Editor think time between edits, uniform in [thinkMin, thinkMax].
	thinkMin = time.Millisecond
	thinkMax = 4 * time.Second
	// Simnet's per-message latency: log-normal around latencyMedian.
	latencyMedian = 25 * time.Millisecond
	latencySigma  = 0.5
	// Stack configuration: checkpoint period in commits, the truncation
	// margin in intervals, and the maintenance and gateway timers.
	checkpointInterval uint64 = 8
	keepIntervals             = 1
	truncateEvery             = 10 * time.Second
	batchTick                 = 250 * time.Millisecond
	probeIdle                 = 2 * time.Second
	// Virtual-time budgets: loss-free warm-up, the driver's sampling
	// period, the workload's drain deadline, the settle phase's wait per
	// invariant, and the follower-feed staleness bound.
	warmup         = 3 * time.Second
	sample         = 500 * time.Millisecond
	drainBudget    = 300 * time.Second
	settleBudget   = 120 * time.Second
	stalenessBound = 15 * time.Second
)

func ms(v int64) time.Duration { return time.Duration(v) * time.Millisecond }

// ApplyShort returns the plan with its Short override applied (and the
// override consumed). A plan without one is returned unchanged.
func (p Plan) ApplyShort() Plan {
	o := p.Short
	p.Short = nil
	if o == nil {
		return p
	}
	if o.Peers > 0 {
		p.Peers = o.Peers
	}
	if o.Gateways > 0 {
		p.Gateways = o.Gateways
	}
	if o.Docs > 0 {
		p.Docs = o.Docs
	}
	if o.EditorsPerDoc > 0 {
		p.EditorsPerDoc = o.EditorsPerDoc
	}
	if o.EditsPerEditor > 0 {
		p.EditsPerEditor = o.EditsPerEditor
	}
	if o.ViewersPerEditor > 0 {
		p.ViewersPerEditor = o.ViewersPerEditor
	}
	if o.ChurnScale > 0 {
		churn := make([]ChurnBatch, len(p.Churn))
		for i, b := range p.Churn {
			churn[i] = ChurnBatch{
				AtMS:  b.AtMS,
				Crash: scaleCount(b.Crash, o.ChurnScale),
				Join:  scaleCount(b.Join, o.ChurnScale),
			}
		}
		p.Churn = churn
	}
	return p
}

func scaleCount(n int, f float64) int {
	if n <= 0 {
		return 0
	}
	s := int(float64(n) * f)
	if s < 1 {
		s = 1
	}
	return s
}

// Validate reports the first structural problem with the plan.
func (p Plan) Validate() error {
	if p.Peers < 4 {
		return fmt.Errorf("plan %q: peers=%d, need at least 4", p.Name, p.Peers)
	}
	if p.Docs < 1 || p.EditorsPerDoc < 1 || p.EditsPerEditor < 1 {
		return fmt.Errorf("plan %q: docs/editors_per_doc/edits_per_editor must be >= 1 (have %d/%d/%d)",
			p.Name, p.Docs, p.EditorsPerDoc, p.EditsPerEditor)
	}
	if p.Gateways == 0 && p.Docs*p.EditorsPerDoc >= p.Peers {
		return fmt.Errorf("plan %q: %d editor sessions need host peers but only %d peers exist",
			p.Name, p.Docs*p.EditorsPerDoc, p.Peers)
	}
	if p.Gateways > p.Peers {
		return fmt.Errorf("plan %q: gateways=%d > peers=%d", p.Name, p.Gateways, p.Peers)
	}
	if p.Gateways == 0 && p.ViewersPerEditor > 0 {
		return fmt.Errorf("plan %q: viewers_per_editor needs gateways > 0 (follower feeds are a gateway feature)", p.Name)
	}
	if p.LossRate < 0 || p.LossRate >= 1 {
		return fmt.Errorf("plan %q: loss_rate=%v out of [0,1)", p.Name, p.LossRate)
	}
	if p.DeleteFraction < 0 || p.DeleteFraction >= 1 {
		return fmt.Errorf("plan %q: delete_fraction=%v out of [0,1)", p.Name, p.DeleteFraction)
	}
	for i, f := range p.Faults {
		switch f.Kind {
		case FaultCrashBoundaryAuthor:
			if p.Gateways > 0 {
				return fmt.Errorf("plan %q: faults[%d]: crash-boundary-author needs direct sessions (gateways=0)", p.Name, i)
			}
		case FaultPartition:
			if f.DurationMS <= 0 {
				return fmt.Errorf("plan %q: faults[%d]: partition needs duration_ms > 0", p.Name, i)
			}
			if f.Fraction < 0 || f.Fraction > 0.5 {
				return fmt.Errorf("plan %q: faults[%d]: partition fraction=%v out of (0,0.5] (0 = default 0.25)", p.Name, i, f.Fraction)
			}
		case FaultKillMaster:
			// Any AtMS works; 0 fires right after warm-up.
		default:
			return fmt.Errorf("plan %q: faults[%d]: unknown kind %q", p.Name, i, f.Kind)
		}
		if f.Doc < 0 {
			return fmt.Errorf("plan %q: faults[%d]: doc=%d negative", p.Name, i, f.Doc)
		}
	}
	for i, b := range p.Churn {
		if b.Crash < 0 || b.Join < 0 {
			return fmt.Errorf("plan %q: churn[%d]: negative counts", p.Name, i)
		}
	}
	return nil
}

// DoomedDocs returns the set of doc indexes armed with a
// crash-boundary-author fault (indexes outside the doc range dropped).
func (p Plan) DoomedDocs() map[int]bool {
	out := make(map[int]bool)
	for _, f := range p.Faults {
		if f.Kind == FaultCrashBoundaryAuthor && f.Doc < p.Docs {
			out[f.Doc] = true
		}
	}
	return out
}

// Marshal renders the plan as indented JSON (the plan-file format).
func (p Plan) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the plan to path as a plan file.
func (p Plan) Save(path string) error {
	b, err := p.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Parse decodes a plan file, rejecting unknown fields so a typo in a
// knob name fails loudly instead of silently running the default, and
// anything after the plan object, so a concatenated or merge-damaged
// file does not silently run its first half. Empty churn and fault
// lists decode as absent, the form Marshal writes them in.
func Parse(b []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Plan{}, fmt.Errorf("plan: trailing content after the plan object at offset %d", dec.InputOffset())
	}
	if len(p.Churn) == 0 {
		p.Churn = nil
	}
	if len(p.Faults) == 0 {
		p.Faults = nil
	}
	return p, nil
}

// Load reads and decodes a plan file.
func Load(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	p, err := Parse(b)
	if err != nil {
		return Plan{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
