// Package harness implements the paper's own evaluation: one runnable
// experiment per table/figure/scenario of the paper (Experiments is the
// index), plus chord-only scale (E11). Each experiment builds a
// simulated P2P-LTR network, drives the workload, asserts the paper's
// correctness claims (continuity, total order, eventual consistency)
// and prints a result table. Full-stack scenarios under faults are
// plans under examples/plans run by internal/simtest; performance
// numbers are benchmark/.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the result tables.
	Out io.Writer
	// Seed makes workloads and latency draws reproducible.
	Seed int64
	// Quick shrinks sweeps for use inside `go test`.
	Quick bool
	// Long grows the virtual-time scale experiments to the paper's
	// ten-thousand-peer regime (E11); minutes of wall time, so opt-in.
	Long bool
}

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	ID      string
	Title   string
	Paper   string // which paper artifact it regenerates
	Run     func(Config) error
	Default bool // included in `p2pltr-bench -e all`
}

// Experiments returns the registry in canonical order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Timestamp generation & master distribution", Paper: "Figure 4 / 'Timestamp generation' scenario", Run: RunE1, Default: true},
		{ID: "E2", Title: "Concurrent patch publishing", Paper: "Figure 5 / 'Concurrent patch publishing' scenario", Run: RunE2, Default: true},
		{ID: "E3", Title: "Master-key departures (leave & crash)", Paper: "'Master-key peer departures' scenario", Run: RunE3, Default: true},
		{ID: "E4", Title: "New Master-key peer joining", Paper: "'New Master-key peer joining' scenario", Run: RunE4, Default: true},
		{ID: "E5", Title: "DHT lookup scaling (hops & latency)", Paper: "'response times of P2P-LTR'", Run: RunE5, Default: true},
		{ID: "E6", Title: "P2P-Log availability vs replication factor", Paper: "'high availability of updates in the DHT'", Run: RunE6, Default: true},
		{ID: "E7", Title: "P2P-LTR vs centralized / LWW / CRDT baselines", Paper: "introduction's motivation (bottleneck, SPOF, lost updates)", Run: RunE7, Default: true},
		{ID: "E8", Title: "Eventual consistency under churn (soak)", Paper: "conclusion's dynamicity-and-failures claim", Run: RunE8, Default: true},
		{ID: "E9", Title: "Checkpointed cold-join catch-up & log truncation", Paper: "beyond the paper: snapshot layer bounding catch-up under churn (ROADMAP)", Run: RunE9, Default: true},
		{ID: "E10", Title: "Self-healing maintenance: fallback checkpoints, slot repair & auto-truncation", Paper: "beyond the paper: maintain engine closing the checkpoint liveness gaps (ROADMAP)", Run: RunE10, Default: true},
		{ID: "E11", Title: "Virtual-time scale: ring convergence under churn & sustained loss at 1k-10k peers", Paper: "the paper's multi-thousand-peer evaluation regime, via deterministic discrete-event simulation (ROADMAP)", Run: RunE11, Default: true},
		{ID: "A1", Title: "Ablation: Hr factor vs Log-Peers-Succ vs read repair", Paper: "design-choice ablation (availability mechanisms)", Run: RunA1, Default: true},
	}
}

// Lookup finds an experiment by ID (case-sensitive, e.g. "E3").
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every default experiment, stopping at the first error.
func RunAll(cfg Config) error {
	for _, e := range Experiments() {
		if !e.Default {
			continue
		}
		if err := runOne(e, cfg); err != nil {
			return err
		}
	}
	return nil
}

func runOne(e Experiment, cfg Config) error {
	fmt.Fprintf(cfg.Out, "=== %s: %s\n    reproduces: %s\n", e.ID, e.Title, e.Paper)
	start := time.Now()
	if err := e.Run(cfg); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintf(cfg.Out, "    [%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// Run executes a single experiment by ID, or all of them for "all".
func Run(id string, cfg Config) error {
	if id == "all" || id == "" {
		return RunAll(cfg)
	}
	e, ok := Lookup(id)
	if !ok {
		var ids []string
		for _, x := range Experiments() {
			ids = append(ids, x.ID)
		}
		sort.Strings(ids)
		return fmt.Errorf("harness: unknown experiment %q (have %v, or 'all')", id, ids)
	}
	return runOne(e, cfg)
}
