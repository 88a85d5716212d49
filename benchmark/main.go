// Command benchmark is the repository's measuring stick: four workloads
// over two clocks, end-to-end metrics a user of P2P-LTR would feel,
// per-layer metrics named after the stack's modules, and a traced run.
// README.md in this directory is the specification; BENCHMARK.json at
// the repository root is the contract with the driver.
//
//	go run ./benchmark --workload serve-hot --seed 1 --seconds 30 --trace 0
//	go run ./benchmark -verify
//	go run ./benchmark compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	smoke    bool
	out      string
	spanDir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "serve-hot, serve-spread, churn-heal or tcp-commit")
	fs.Int64Var(&o.seed, "seed", 1, "first seed; a run uses seed, seed+1, ...")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1: traced run on a quarter of the seeds, printing the per-layer metrics and writing the span file")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, one seed: checks the plumbing, measures nothing")
	fs.StringVar(&o.out, "out", "", "append the run's record to this JSON-lines file, for compare")
	fs.StringVar(&o.spanDir, "spans", filepath.Join("benchmark", "out"), "directory the traced run writes its span file to")
	verify := fs.Bool("verify", false, "determinism self-check: one seed of each virtual workload twice untraced and once traced")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = trace != 0
	switch {
	case *spec:
		_, _ = stdout.Write(benchmarkJSON())
		return 0
	case *verify:
		return verifyDeterminism(o, stderr)
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	rec, pooled, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printTable(stderr, rec, pooled)
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// simWorkload is one of the three workloads on the virtual clock.
type simWorkload struct {
	// hostSecondsPerSeed is the calibrated cost of one untraced seed on the
	// 2-core reference host, set-up and checks included; it fixes the seed
	// count of a run so that virtual-time results repeat exactly.
	hostSecondsPerSeed float64
	run                func(seed int64, tr traceOpts) *seedOut
}

func simWorkloadFor(o options) (simWorkload, bool) {
	switch o.workload {
	case "serve-hot", "serve-spread":
		cfg, cost := serveHot, 1.0
		if o.workload == "serve-spread" {
			cfg, cost = serveSpread, 1.5
		}
		if o.smoke {
			cfg = cfg.smoke()
		}
		return simWorkload{cost, func(seed int64, tr traceOpts) *seedOut { return runServeSeed(cfg, seed, tr) }}, true
	case "churn-heal":
		cfg := churnHeal
		if o.smoke {
			cfg = cfg.smoke()
		}
		return simWorkload{3.1, func(seed int64, tr traceOpts) *seedOut { return runChurnSeed(cfg, seed, tr) }}, true
	}
	return simWorkload{}, false
}

// seedCount is how many seeds a run of the given length uses: enough to
// fill four fifths of it on the reference host. The count depends on
// nothing but the arguments.
func (w simWorkload) seedCount(o options) int {
	if o.smoke {
		return 1
	}
	if n := int(0.8 * float64(o.seconds) / w.hostSecondsPerSeed); n > 1 {
		return n
	}
	return 1
}

// execute runs one workload and assembles its record.
func execute(o options, stderr io.Writer) (record, *seedOut, error) {
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	var spans *spanLog
	if o.traced {
		spans = newSpanLog(o.workload)
	}
	var pooled *seedOut
	var values map[string]float64
	var err error
	if w, ok := simWorkloadFor(o); ok {
		pooled, values, rec.Seeds, err = executeSim(o, w, spans, stderr)
	} else if o.workload == "tcp-commit" {
		rec.Seeds = 1
		pooled, values, err = executeTCP(o, spans)
	} else {
		err = fmt.Errorf("unknown workload %q (want serve-hot, serve-spread, churn-heal or tcp-commit)", o.workload)
	}
	if err != nil {
		return rec, nil, err
	}

	rec.Metrics = map[string]metricValue{}
	if o.traced {
		if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
			return rec, nil, err
		}
		path := filepath.Join(o.spanDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := spans.write(path); err != nil {
			return rec, nil, err
		}
		fmt.Fprintf(stderr, "benchmark: %d spans written to %s\n", spans.count(), path)
		for _, l := range layers {
			rec.Metrics[l.Name] = metricValue{Value: values[l.Name], Unit: l.Unit}
		}
	} else {
		for _, g := range gated {
			rec.Metrics[g.Name] = metricValue{Value: values[g.Name], Unit: g.Unit}
		}
	}
	rec.Samples = sampleCounts(pooled)
	rec.Attempted, rec.Failed, rec.Anomalies = pooled.attempted, pooled.failed, pooled.anomalies
	if rec.Attempted < 1 {
		return rec, nil, fmt.Errorf("%s attempted no operation", o.workload)
	}
	rec.Correct = pooled.violations == 0
	return rec, pooled, nil
}

// executeSim runs a virtual-clock workload: untraced, every seed of the
// run; traced, the first quarter of them with tracing on, the same again
// with it off, then the probes: of the network layers on the last seed's
// still-live ring, of the pure-CPU layers in loops.
func executeSim(o options, w simWorkload, spans *spanLog, stderr io.Writer) (pooled *seedOut, values map[string]float64, seeds int, err error) {
	began := time.Now()
	// The virtual scheduler is cooperative: a second processor only adds
	// futex hand-offs and spread (vclock.gomaxprocs_slowdown).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pooled = &seedOut{}
	n := w.seedCount(o)
	if !o.traced {
		for k := 0; k < n; k++ {
			if k > 0 && time.Since(began) >= time.Duration(o.seconds)*time.Second {
				fmt.Fprintf(stderr, "benchmark: out of time after %d of %d seeds; virtual-time results will differ from a full run\n", k, n)
				break
			}
			pooled.merge(w.run(o.seed+int64(k), traceOpts{}))
			seeds++
		}
		return pooled, gatedValues(pooled), seeds, nil
	}
	if seeds = n / 4; seeds < 1 {
		seeds = 1
	}
	untraced := &seedOut{}
	for k := 0; k < seeds; k++ {
		tr := traceOpts{spans: spans}
		if k == seeds-1 {
			tr.probe = func(c *simCluster, out *seedOut) { probeSim(c, spans, out, o.smoke) }
		}
		pooled.merge(w.run(o.seed+int64(k), tr))
	}
	for k := 0; k < seeds; k++ {
		untraced.merge(w.run(o.seed+int64(k), traceOpts{}))
	}
	probeCPU(pooled, o.smoke)
	probeScheduler(pooled, o.smoke)
	return pooled, layerValues(pooled, untraced, seeds, spans.count()), seeds, nil
}

// executeTCP runs tcp-commit: untraced for the whole measured time;
// traced for a quarter of it, the same again untraced, then the probes.
func executeTCP(o options, spans *spanLog) (*seedOut, map[string]float64, error) {
	cfg := tcpCommit
	if o.smoke {
		cfg = cfg.smoke()
	}
	measure := time.Duration(o.seconds) * time.Second
	if !o.traced {
		pooled, err := runTCP(cfg, o.seed, measure, traceOpts{}, nil)
		if err != nil {
			return nil, nil, err
		}
		return pooled, gatedValues(pooled), nil
	}
	cfg.setups = 1 // set-up time is an end-to-end metric: the untraced run's
	pooled, err := runTCP(cfg, o.seed, measure/4, traceOpts{spans: spans}, func(c *tcpCluster, out *seedOut) {
		probeTCP(c, spans, out, o.smoke)
	})
	if err != nil {
		return nil, nil, err
	}
	untraced, err := runTCP(cfg, o.seed, measure/4, traceOpts{}, nil)
	if err != nil {
		return nil, nil, err
	}
	probeCPU(pooled, o.smoke)
	return pooled, layerValues(pooled, untraced, 1, spans.count()), nil
}

// verifyDeterminism runs the first seed of each virtual workload twice
// untraced and once traced. Everything on the virtual clock must repeat
// exactly: every sample pool, count and failure.
func verifyDeterminism(o options, stderr io.Writer) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	code := 0
	for _, name := range []string{"serve-hot", "serve-spread", "churn-heal"} {
		o.workload = name
		w, _ := simWorkloadFor(o)
		first := w.run(o.seed, traceOpts{}).fingerprint()
		for _, again := range []struct {
			how string
			tr  traceOpts
		}{{"second untraced run", traceOpts{}}, {"traced run", traceOpts{spans: newSpanLog(name)}}} {
			got := w.run(o.seed, again.tr).fingerprint()
			diverged := 0
			for i := 0; i < len(first) || i < len(got); i++ {
				var a, b string
				if i < len(first) {
					a = first[i]
				}
				if i < len(got) {
					b = got[i]
				}
				if a != b {
					diverged++
					fmt.Fprintf(stderr, "%s seed %d: %s diverged:\n    first:  %s\n    again:  %s\n", name, o.seed, again.how, a, b)
				}
			}
			if diverged > 0 {
				code = 1
			} else {
				fmt.Fprintf(stderr, "%s seed %d: %s identical (%d values)\n", name, o.seed, again.how, len(first))
			}
		}
	}
	return code
}
