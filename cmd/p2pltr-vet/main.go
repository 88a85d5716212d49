// Command p2pltr-vet is the determinism-invariant vet tool: the five
// go/analysis-style passes in internal/analysis (wallclock, lockpark,
// mapiter, rawgo, globalrand) compiled into a multichecker that speaks
// the `go vet -vettool` unit protocol.
//
// Usage:
//
//	go build -o /tmp/p2pltr-vet ./cmd/p2pltr-vet
//	go vet -vettool=/tmp/p2pltr-vet ./...
//
// Run a single analyzer by passing its name as a flag:
//
//	go vet -vettool=/tmp/p2pltr-vet -lockpark ./internal/kts
//
// The tool exits nonzero (per package) when an invariant is violated;
// each rule's escape hatch is named in its diagnostic. CI runs the full
// suite over the repository on every push, which is what lets the
// bitwise-determinism claims behind E11, the plans under examples/plans
// and the benchmark's -verify survive new code: the hand audits of
// PR 4/5 are now compile-time errors.
package main

import "p2pltr/internal/analysis"

func main() {
	analysis.Main(analysis.Analyzers()...)
}
