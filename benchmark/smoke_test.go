package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps the contract file and the tables it
// is printed from (-spec) identical.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the result line against the contract: exactly the four keys,
// every metric of the run's kind present by name with its unit, no NaN.
func TestSmoke(t *testing.T) {
	spans := t.TempDir()
	for _, wl := range workloadSpecs {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "1", "--trace", trace, "-smoke", "-spans", spans}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(raw) != 4 {
					t.Fatalf("result has %d keys, want correct, attempted, failed, metrics", len(raw))
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				if res.Failed != 0 || !res.Correct {
					// The smoke test checks the plumbing; what the program
					// does wrong under it is the benchmark's to report.
					t.Logf("failed = %d, correct = %v\n%s", res.Failed, res.Correct, stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, g := range gated {
						want[g.Name] = g.Unit
					}
				} else {
					for _, l := range layers {
						want[l.Name] = l.Unit
					}
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("unexpected metric %s", name)
					}
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q breaks the naming rule", name)
					}
				}
				if trace == "1" {
					if m, _ := filepath.Glob(filepath.Join(spans, "spans-"+wl.Name+"-*.jsonl")); len(m) == 0 {
						t.Error("traced run wrote no span file")
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins the spread computation to what the driver
// uses, statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, workload string, firstSeed int64, commit []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range commit {
			rec := record{Workload: workload, Seed: firstSeed + int64(i), Seeds: 1, Attempted: 100,
				Metrics: map[string]metricValue{"commit_p50_ms": {Value: v, Unit: "ms"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name, workload string
		firstSeed      int64 // of the second set; the first set starts at 0
		values         []float64
		verdict        string
		code           int
	}{
		// The wall clock: the bound is BENCHMARK.json's.
		{"same", "tcp-commit", 0, steady, "within bound", 0},
		{"slow", "tcp-commit", 0, []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "REGRESSED", 1},
		{"fast", "tcp-commit", 0, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved", 0},
		{"wide", "tcp-commit", 0, []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, "unresolved", 0},
		// The virtual clock: equal seeds pair up, and the bound is 5 %.
		{"vsame", "serve-hot", 0, steady, "identical", 0},
		{"vslow", "serve-hot", 0, []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "REGRESSED", 1},
		{"vnudged", "serve-hot", 0, []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 101}, "within bound", 0},
		{"vother", "serve-hot", 50, []float64{90, 110, 92, 108, 95, 105, 100, 100, 99, 101}, "unresolved", 0},
	} {
		var stdout, stderr bytes.Buffer
		base := write(c.name+"-a.jsonl", c.workload, 0, steady)
		code := compare([]string{base, write(c.name+"-b.jsonl", c.workload, c.firstSeed, c.values)}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d and verdict %q\n%s%s", c.name, code, c.code, c.verdict, stdout.String(), stderr.String())
		}
	}
}
