package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compare reads two files of run records (-out) and prints, per workload
// and metric, both medians, the change, the bound, and a verdict. It is
// how "two sets of runs agree" is shown, and how a later change is read.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err == nil {
		var b map[string]map[string]runs
		if b, err = readRecords(args[1]); err == nil {
			if printComparison(stdout, a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
	return 2
}

// runs are one metric's values over a file's runs of one workload, with
// the seed list each run used.
type runs struct {
	values []float64
	seeds  []string
}

// sameSeeds reports whether a and b hold the same runs, one for one.
func (a runs) sameSeeds(b runs) bool {
	if len(a.seeds) != len(b.seeds) {
		return false
	}
	for i := range a.seeds {
		if a.seeds[i] != b.seeds[i] {
			return false
		}
	}
	return true
}

// readRecords groups a file's metric values by workload and metric name.
// failed_share, which no record carries as a metric, is derived.
func readRecords(path string) (map[string]map[string]runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		w := out[rec.Workload]
		if w == nil {
			w = map[string]runs{}
			out[rec.Workload] = w
		}
		add := func(name string, v float64) {
			r := w[name]
			w[name] = runs{append(r.values, v), append(r.seeds, fmt.Sprintf("%d+%d", rec.Seed, rec.Seeds))}
		}
		for name, m := range rec.Metrics {
			add(name, m.Value)
		}
		if !rec.Traced {
			add("failed_share", div(float64(rec.Failed), float64(rec.Attempted)))
		}
	}
	return out, sc.Err()
}

// failedShareBound is absolute: failed operations over attempted may not
// rise by more than this.
const failedShareBound = 0.005

// virtualBound is the bound of a virtual-clock metric on a virtual-clock
// workload. BENCHMARK.json has one bound per metric, wide enough for the
// metric's noisiest workload, which is tcp-commit's wall clock; a virtual
// number has no noise, so a shift of a fifth there is a change of
// behaviour, not a run within bound.
const virtualBound = 0.05

// onVirtualClock reports whether the metric of that workload is read off
// the virtual clock, and therefore repeats exactly for equal seeds.
func onVirtualClock(workload, metric string) bool {
	switch metric {
	case "commit_p50_ms", "commit_p99_ms", "staleness_p50_ms", "catchup_p50_ms", "goodput_lines_per_s":
		return workload != "tcp-commit"
	}
	return false
}

// verdict judges one metric of one workload. worse is the relative change
// in the bad direction; spread the wider of the two sets' interquartile
// ranges over their medians.
func verdict(worse, spread, bound float64) string {
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "REGRESSED"
	case worse < 0 && -worse > spread:
		return "improved"
	}
	return "within bound"
}

// printComparison reports whether any gated metric regressed.
func printComparison(w io.Writer, a, b map[string]map[string]runs) (regressed bool) {
	spec := map[string]gatedSpec{}
	for _, g := range gated {
		spec[g.Name] = g
	}
	better := map[string]string{}
	for _, l := range layers {
		better[l.Name] = l.Better
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn A\tn B\tmedian A\tmedian B\tchange\tspread\tbound\tverdict\t")
	for _, wl := range workloadSpecs {
		names := make([]string, 0, len(a[wl.Name]))
		for name := range a[wl.Name] {
			if len(b[wl.Name][name].values) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ra, rb := a[wl.Name][name], b[wl.Name][name]
			va, vb := ra.values, rb.values
			ma, mb := median(va), median(vb)
			if name == "failed_share" {
				v := "within bound"
				if mb-ma > failedShareBound {
					v, regressed = "REGRESSED", true
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4f\t%.4f\t%+.4f\t\t+%.3f abs\t%s\t\n", wl.Name, name, len(va), len(vb), ma, mb, mb-ma, failedShareBound, v)
				continue
			}
			change := div(mb-ma, ma)
			spread := 0.0
			for _, v := range [][]float64{va, vb} {
				q1, q3 := quartiles(v)
				if s := div(q3-q1, median(v)); s > spread {
					spread = s
				}
			}
			g, isGated := spec[name]
			if !isGated {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4f\t%.4f\t%+.2f%%\t%.2f%%\t\t%s is better\t\n", wl.Name, name, len(va), len(vb), ma, mb, 100*change, 100*spread, better[name])
				continue
			}
			worse := change
			if g.Better == "higher" {
				worse = -change
			}
			bound := g.Bound
			var v string
			if onVirtualClock(wl.Name, name) {
				bound = virtualBound
				if ra.sameSeeds(rb) {
					// The same seeds repeat exactly, so the runs pair up and
					// what spread there is lies between seeds, not between
					// the two sets.
					spread = 0
					v = "identical"
					for i := range va {
						if va[i] != vb[i] {
							v = ""
						}
					}
				}
			}
			if v == "" {
				v = verdict(worse, spread, bound)
			}
			regressed = regressed || v == "REGRESSED"
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4f\t%.4f\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n", wl.Name, name, len(va), len(vb), ma, mb, 100*change, 100*spread, 100*bound, v)
		}
	}
	_ = tw.Flush() // the writer is a terminal or a test buffer
	return regressed
}
