package simtest

import "fmt"

// ShrinkStep records one shrink attempt for the audit trail.
type ShrinkStep struct {
	Desc     string
	Accepted bool
	// Violations the candidate produced (empty when it passed).
	Violations []string
}

// ShrinkReport is the outcome of a shrink session.
type ShrinkReport struct {
	// Minimal is the smallest plan found that still fails one of the
	// original violations under the original seed.
	Minimal Plan
	// Result is the minimal plan's (failing) run result.
	Result *Result
	// Target is the original failure's violation names; a candidate
	// counts as "still failing" when it reproduces at least one of them.
	Target []string
	Steps  []ShrinkStep
	Runs   int
}

// Shrink minimizes a failing (plan, seed) pair QuickCheck-style: greedy
// passes over the plan's degrees of freedom — drop each fault event,
// drop each churn batch, halve churn batch sizes, halve peers, docs,
// editors, edits, viewers and gateways, zero the loss rate — accepting
// any candidate that still fails one of the original violations under
// the SAME seed, and repeating until a full pass accepts nothing (or
// maxRuns simulations were spent). Returns nil if the original run
// passes (nothing to shrink).
//
// Determinism makes this sound: a candidate either reproduces the
// violation bitwise-reliably or it does not — there is no flaky middle
// where a shrunk plan fails only sometimes.
func Shrink(plan Plan, seed int64, maxRuns int, onStep func(ShrinkStep)) *ShrinkReport {
	if maxRuns <= 0 {
		maxRuns = 100
	}
	orig := Run(plan, seed)
	if orig.Pass() {
		return nil
	}
	rep := &ShrinkReport{Minimal: plan, Result: orig, Target: orig.ViolationNames(), Runs: 1}
	target := map[string]bool{}
	for _, v := range rep.Target {
		target[v] = true
	}

	try := func(desc string, cand Plan) bool {
		if rep.Runs >= maxRuns {
			return false
		}
		if cand.Validate() != nil {
			return false // structurally impossible, not a real repro
		}
		res := Run(cand, seed)
		rep.Runs++
		step := ShrinkStep{Desc: desc}
		for _, v := range res.ViolationNames() {
			if v == "run" {
				// A candidate that fails to even execute is no repro.
				step.Violations = nil
				break
			}
			step.Violations = append(step.Violations, v)
			if target[v] {
				step.Accepted = true
			}
		}
		if step.Accepted {
			rep.Minimal = cand
			rep.Result = res
		}
		rep.Steps = append(rep.Steps, step)
		if onStep != nil {
			onStep(step)
		}
		return step.Accepted
	}

	for changed := true; changed && rep.Runs < maxRuns; {
		changed = false
		p := rep.Minimal

		// Drop each fault event (back to front so indexes stay stable
		// across an accepted drop within the pass).
		for i := len(p.Faults) - 1; i >= 0; i-- {
			cand := p
			cand.Faults = append(append([]FaultEvent{}, p.Faults[:i]...), p.Faults[i+1:]...)
			if try(fmt.Sprintf("drop fault[%d] %s", i, p.Faults[i].Kind), cand) {
				p, changed = rep.Minimal, true
			}
		}
		// Drop each churn batch.
		for i := len(p.Churn) - 1; i >= 0; i-- {
			cand := p
			cand.Churn = append(append([]ChurnBatch{}, p.Churn[:i]...), p.Churn[i+1:]...)
			if try(fmt.Sprintf("drop churn[%d]", i), cand) {
				p, changed = rep.Minimal, true
			}
		}
		// Halve the surviving churn batches.
		if halved, any := halveChurn(p.Churn); any {
			cand := p
			cand.Churn = halved
			if try("halve churn batch sizes", cand) {
				p, changed = rep.Minimal, true
			}
		}
		// Zero the loss rate.
		if p.LossRate > 0 {
			cand := p
			cand.LossRate = 0
			if try("zero loss rate", cand) {
				p, changed = rep.Minimal, true
			}
		}
		// Halve the topology and workload counts. The floor keeps the
		// candidate structurally valid: at least 4 peers and one host
		// per editor session (Validate re-checks anyway).
		shrinks := []struct {
			desc string
			mut  func(*Plan) bool
		}{
			{"halve peers", func(c *Plan) bool { return halve(&c.Peers, max(4, c.Docs*c.EditorsPerDoc+1)) }},
			{"halve docs", func(c *Plan) bool { return halve(&c.Docs, 1) }},
			{"halve editors per doc", func(c *Plan) bool { return halve(&c.EditorsPerDoc, 1) }},
			{"halve edits per editor", func(c *Plan) bool { return halve(&c.EditsPerEditor, 1) }},
			{"halve viewers per editor", func(c *Plan) bool { return halve(&c.ViewersPerEditor, 0) }},
			{"halve gateways", func(c *Plan) bool { return halve(&c.Gateways, 0) }},
		}
		for _, s := range shrinks {
			cand := p
			if !s.mut(&cand) {
				continue
			}
			if try(s.desc, cand) {
				p, changed = rep.Minimal, true
			}
		}
	}
	rep.Minimal.Notes = fmt.Sprintf("shrunk repro of %q (seed %d): still fails %v", plan.Name, seed, rep.Target)
	rep.Minimal.Seed = seed
	rep.Minimal.Short = nil
	return rep
}

// halve floors v at lo; reports whether it changed.
func halve(v *int, lo int) bool {
	n := *v / 2
	if n < lo {
		n = lo
	}
	if n == *v {
		return false
	}
	*v = n
	return true
}

func halveChurn(churn []ChurnBatch) ([]ChurnBatch, bool) {
	out := make([]ChurnBatch, len(churn))
	any := false
	for i, b := range churn {
		out[i] = ChurnBatch{AtMS: b.AtMS, Crash: b.Crash / 2, Join: b.Join / 2}
		if out[i] != b {
			any = true
		}
	}
	return out, any
}
