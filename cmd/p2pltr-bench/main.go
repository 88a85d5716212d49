// Command p2pltr-bench regenerates the paper's evaluation: one experiment
// per table/figure/scenario (`-list` prints the index). Full-stack
// scenarios under faults are plans run by p2pltr-sim; performance
// numbers come from benchmark/run.sh.
//
// Usage:
//
//	p2pltr-bench -e all          # run the full suite
//	p2pltr-bench -e E3           # one experiment
//	p2pltr-bench -e E2 -quick    # reduced sweep (CI-sized)
//	p2pltr-bench -list           # show the experiment index
package main

import (
	"flag"
	"fmt"
	"os"

	"p2pltr/internal/harness"
)

func main() {
	var (
		exp   = flag.String("e", "all", "experiment ID (E1..E11, A1) or 'all'")
		seed  = flag.Int64("seed", 1, "workload and latency seed")
		quick = flag.Bool("quick", false, "reduced parameter sweeps")
		long  = flag.Bool("long", false, "paper-scale sweep (E11 at 10k peers)")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-4s %-50s reproduces: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	cfg := harness.Config{Out: os.Stdout, Seed: *seed, Quick: *quick, Long: *long}
	if err := harness.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
