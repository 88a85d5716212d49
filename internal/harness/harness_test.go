package harness

import (
	"bytes"
	"strings"
	"testing"
)

func quickCfg() Config {
	return Config{Out: &bytes.Buffer{}, Seed: 1, Quick: true}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 12 {
		t.Fatalf("have %d experiments, want 12", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" || e.Paper == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("E3"); !ok {
		t.Fatalf("lookup E3 failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatalf("lookup E99 succeeded")
	}
}

func TestRunUnknownID(t *testing.T) {
	err := Run("E99", quickCfg())
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

// Each experiment runs end-to-end in quick mode and emits a table.
func TestE1(t *testing.T) { runExperiment(t, "E1", "masters-used") }
func TestE2(t *testing.T) { runExperiment(t, "E2", "behind-rounds") }
func TestE3(t *testing.T) { runExperiment(t, "E3", "takeover") }
func TestE4(t *testing.T) { runExperiment(t, "E4", "masters-moved") }
func TestE5(t *testing.T) { runExperiment(t, "E5", "mean-hops") }
func TestE6(t *testing.T) { runExperiment(t, "E6", "availability%") }
func TestE7(t *testing.T) { runExperiment(t, "E7", "P2P-LTR") }
func TestE9(t *testing.T) { runExperiment(t, "E9", "join-fetches") }

// TestE10 drives the self-healing maintenance subsystem: boundary
// authors die at commit, truncation is never called explicitly, and the
// maintain engine must keep checkpoint lag and slot occupancy bounded.
func TestE10(t *testing.T) { runExperiment(t, "E10", "ckpt-lag") }

// TestE8EventualConsistencyUnderChurn is the headline soak.
func TestE8EventualConsistencyUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	runExperiment(t, "E8", "converged")
}

func runExperiment(t *testing.T, id, wantOutput string) {
	t.Helper()
	runExperimentCfg(t, id, wantOutput, Config{Seed: 1, Quick: true})
}

// runExperimentFull runs an experiment at its default (non-quick) scale.
func runExperimentFull(t *testing.T, id, wantOutput string) {
	t.Helper()
	runExperimentCfg(t, id, wantOutput, Config{Seed: 1})
}

func runExperimentCfg(t *testing.T, id, wantOutput string, cfg Config) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Out = &buf
	if err := Run(id, cfg); err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", id, err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, wantOutput) {
		t.Fatalf("%s output missing %q:\n%s", id, wantOutput, out)
	}
	if !strings.Contains(out, "shape check") {
		t.Fatalf("%s output missing shape check note:\n%s", id, out)
	}
}

func TestA1Ablation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	runExperiment(t, "A1", "availability%")
}
