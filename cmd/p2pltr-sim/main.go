// Command p2pltr-sim runs declarative experiment plans (internal/simtest)
// over the deterministic simulation stack: single runs, multi-seed
// campaign sweeps, and auto-shrinking of failing plans to minimal
// repros.
//
// Usage:
//
//	p2pltr-sim run     -plan examples/plans/e12.json [-seed 7] [-short] [-out result.json]
//	p2pltr-sim sweep   -plan examples/plans/e12.json -seeds 256 [-workers 8] [-short]
//	p2pltr-sim shrink  -plan broken.json -seed 3 [-max-runs 100] -out repro.json
//	p2pltr-sim explain -plan repro.json -seed 3 [-out forensics.json]
//
// -plan is a plan file; the committed ones live under examples/plans.
// `run` exits 1 when an invariant fails, `sweep` when any seed fails;
// `shrink` exits 0 once it has written a still-failing minimal repro.
// `explain` reruns a failing (plan, seed) pair and prints its forensics
// bundle — the causal slice of flight-recorder events and cross-peer
// spans around the violating keys; it exits 1 when the plan passes
// (nothing to explain).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"p2pltr/internal/simtest"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "run":
		os.Exit(cmdRun(args))
	case "sweep":
		os.Exit(cmdSweep(args))
	case "shrink":
		os.Exit(cmdShrink(args))
	case "explain":
		os.Exit(cmdExplain(args))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: p2pltr-sim <run|sweep|shrink|explain> [flags]")
}

// loadPlan reads and validates the plan file -plan names.
func loadPlan(path string, short bool) (simtest.Plan, error) {
	if path == "" {
		return simtest.Plan{}, fmt.Errorf("-plan required (a plan file, e.g. %q)", "examples/plans/e12.json")
	}
	p, err := simtest.Load(path)
	if err != nil {
		return simtest.Plan{}, err
	}
	if short {
		p = p.ApplyShort()
	}
	if err := p.Validate(); err != nil {
		return simtest.Plan{}, err
	}
	return p, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "p2pltr-sim:", err)
	return 2
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	planName := fs.String("plan", "", "plan file")
	seed := fs.Int64("seed", -1, "seed override (default: the plan's seed)")
	short := fs.Bool("short", false, "apply the plan's short override")
	out := fs.String("out", "", "write the full result as JSON to this file")
	fs.Parse(args)
	plan, err := loadPlan(*planName, *short)
	if err != nil {
		return fail(err)
	}
	s := plan.Seed
	if *seed >= 0 {
		s = *seed
	}
	res := simtest.Run(plan, s)
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("%s %-16s %s\n", mark, c.Name, c.Detail)
	}
	fmt.Printf("plan %s seed %d: %d commits, %d events, digest %016x, %s virtual, %s wall\n",
		plan.Name, s, res.Commits, len(res.Events), res.Digest, res.Virtual, res.Wall.Round(1e6))
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return fail(err)
		}
	}
	if !res.Pass() {
		return 1
	}
	return 0
}

func cmdSweep(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	planName := fs.String("plan", "", "plan file")
	firstSeed := fs.Int64("seed", 1, "first seed of the sweep")
	seeds := fs.Int("seeds", 64, "number of consecutive seeds")
	workers := fs.Int("workers", 4, "parallel workers")
	short := fs.Bool("short", false, "apply the plan's short override")
	out := fs.String("out", "", "write the campaign report as JSON to this file")
	quiet := fs.Bool("q", false, "suppress per-seed progress lines")
	fs.Parse(args)
	plan, err := loadPlan(*planName, *short)
	if err != nil {
		return fail(err)
	}
	onDone := func(sr simtest.SeedResult) {
		if *quiet {
			return
		}
		if sr.Pass {
			fmt.Printf("seed %-6d pass  digest %016x\n", sr.Seed, sr.Digest)
		} else {
			fmt.Printf("seed %-6d FAIL  %v\n", sr.Seed, sr.Violations)
		}
	}
	rep := simtest.Campaign(plan, *firstSeed, *seeds, *workers, onDone)
	fmt.Printf("plan %s: %d/%d seeds passed (%d workers, %.1f seeds/min)\n",
		rep.Plan, rep.Passed, rep.Seeds, rep.Workers, rep.SeedsPerMinute)
	if f := rep.FirstFailure(); f != nil {
		fmt.Printf("first failure: seed %d, violations %v (shrink it: p2pltr-sim shrink -plan %s -seed %d)\n",
			f.Seed, f.Violations, *planName, f.Seed)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func cmdShrink(args []string) int {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	planName := fs.String("plan", "", "plan file")
	seed := fs.Int64("seed", -1, "seed override (default: the plan's seed)")
	maxRuns := fs.Int("max-runs", 100, "simulation budget")
	short := fs.Bool("short", false, "apply the plan's short override")
	out := fs.String("out", "", "write the minimal repro plan to this file")
	fs.Parse(args)
	plan, err := loadPlan(*planName, *short)
	if err != nil {
		return fail(err)
	}
	s := plan.Seed
	if *seed >= 0 {
		s = *seed
	}
	rep := simtest.Shrink(plan, s, *maxRuns, func(st simtest.ShrinkStep) {
		mark := "rejected"
		if st.Accepted {
			mark = "ACCEPTED"
		}
		fmt.Printf("%-8s %-28s violations %v\n", mark, st.Desc, st.Violations)
	})
	if rep == nil {
		fmt.Printf("plan %s passes under seed %d; nothing to shrink\n", plan.Name, s)
		return 1
	}
	fmt.Printf("shrunk after %d runs; minimal plan still fails %v (target %v)\n",
		rep.Runs, rep.Result.ViolationNames(), rep.Target)
	if *out != "" {
		if err := rep.Minimal.Save(*out); err != nil {
			return fail(err)
		}
		fmt.Printf("minimal repro written to %s (rerun: p2pltr-sim run -plan %s -seed %d)\n", *out, *out, s)
	} else {
		b, _ := rep.Minimal.Marshal()
		os.Stdout.Write(b)
	}
	return 0
}

// cmdExplain reruns a failing (plan, seed) pair deterministically and
// prints the forensics bundle: the violated checks, the keys they
// attribute the failure to, and the causal slice of flight-recorder
// events and cross-peer spans around those keys.
func cmdExplain(args []string) int {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	planName := fs.String("plan", "", "plan file")
	seed := fs.Int64("seed", -1, "seed override (default: the plan's seed)")
	short := fs.Bool("short", false, "apply the plan's short override")
	out := fs.String("out", "", "write the forensics bundle as JSON to this file")
	fs.Parse(args)
	plan, err := loadPlan(*planName, *short)
	if err != nil {
		return fail(err)
	}
	s := plan.Seed
	if *seed >= 0 {
		s = *seed
	}
	res := simtest.Run(plan, s)
	if res.Pass() {
		fmt.Printf("plan %s seed %d passes; nothing to explain\n", plan.Name, s)
		return 1
	}
	f := res.Forensics
	if f == nil {
		// Only a structurally broken plan ("run" check) fails before the
		// forensics assembler runs; its violations still print.
		for _, c := range res.Violations() {
			fmt.Printf("FAIL %-16s %s\n", c.Name, c.Detail)
		}
		fmt.Println("no forensics bundle (run failed before the invariant suite)")
		return 0
	}
	epoch := time.Unix(0, 0).UTC()
	fmt.Printf("plan %s seed %d: %d violation(s), keys %v\n", plan.Name, s, len(f.Violations), f.Keys)
	for _, c := range f.Violations {
		key := c.Key
		if key == "" {
			key = "-"
		}
		fmt.Printf("FAIL %-16s key %-8s %s\n", c.Name, key, c.Detail)
	}
	fmt.Printf("\ncausal slice: %d of %d flight-recorder events\n", len(f.Slice), len(res.FlightEvents))
	for _, ev := range f.Slice {
		tr := "-"
		if ev.Trace != 0 {
			tr = fmt.Sprintf("%016x", ev.Trace)
		}
		fmt.Printf("  %-14s %-10s %-16s %-10s trace %s  %s\n",
			ev.Start.Sub(epoch), ev.Peer, ev.Kind, ev.Key, tr, ev.Detail)
	}
	fmt.Printf("\ncross-peer spans touching the slice: %d\n", len(f.Spans))
	for _, sp := range f.Spans {
		peer := sp.Peer
		if peer == "" {
			peer = "(origin)"
		}
		errs := ""
		if sp.Err != "" {
			errs = "  err=" + sp.Err
		}
		fmt.Printf("  %-14s %-10s %-10s %-10s trace %016x hop %d  %s%s\n",
			sp.Start.Sub(epoch), peer, sp.Kind, sp.Key, sp.Trace, sp.Hops, sp.End.Sub(sp.Start), errs)
	}
	if *out != "" {
		if err := writeJSON(*out, f); err != nil {
			return fail(err)
		}
		fmt.Printf("\nforensics bundle written to %s\n", *out)
	}
	return 0
}
