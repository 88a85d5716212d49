package simtest

import (
	"path/filepath"
	"testing"
)

// plansDir holds the committed plans: the file is the plan, CI runs and
// sweeps the files, and the tests load the same files.
const plansDir = "../../examples/plans"

// failingExample is the one archived plan that violates an invariant on
// purpose (the forensics worked example).
const failingExample = "ckptlag-repro.json"

func loadExample(t *testing.T, name string) Plan {
	t.Helper()
	p, err := Load(filepath.Join(plansDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// examplePlans returns the file names of the committed plans.
func examplePlans(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(plansDir, "*.json"))
	if err != nil || len(paths) < 3 {
		t.Fatalf("%s holds %v (%v), want at least e12, e13-hot and %s", plansDir, paths, err, failingExample)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// TestPlanE12Shape runs the committed E12 plan (512 peers; its short
// size under -short) and checks it exercised what it is there for, not
// only that the invariants held: boundary authors died, only the
// fallback producer could and did carry the checkpoint chain to every
// document's last boundary, and the loss model dropped messages.
func TestPlanE12Shape(t *testing.T) {
	plan := loadExample(t, "e12.json")
	if testing.Short() {
		plan = plan.ApplyShort()
	}
	res := Run(plan, plan.Seed)
	if !testing.Short() {
		checkPinned(t, "e12.json", res)
	}
	if !res.Pass() {
		t.Fatalf("e12 plan violates its invariants: %+v", res.Violations())
	}
	if res.Commits == 0 || res.Kills == 0 {
		t.Fatalf("degenerate workload: %d commits, %d boundary-author kills", res.Commits, res.Kills)
	}
	if res.Dropped == 0 {
		t.Fatalf("sustained loss dropped no messages (sent %d)", res.Sent)
	}
	if res.Counters["fallback-checkpoints"] == 0 {
		t.Fatalf("boundary authors died yet no fallback checkpoint was produced: %v", res.Counters)
	}
	interval := checkpointInterval
	doomed := plan.DoomedDocs()
	for i, d := range res.Docs {
		if d.Doomed != doomed[i] {
			t.Errorf("%s doomed = %v, the plan arms %v", d.Doc, d.Doomed, doomed)
		}
		if boundary := d.FinalTS - d.FinalTS%interval; d.CkptPtr < boundary {
			t.Errorf("%s pointer %d below last boundary %d of final ts %d", d.Doc, d.CkptPtr, boundary, d.FinalTS)
		}
	}
}

// pinnedRuns is what each committed plan does at its own seed and full
// size: the run digest, the trace digest (every finished span, which the
// run digest does not fold), and whether every invariant holds. A change
// that moves behaviour on purpose updates the digests here and says so
// in CHANGES.md; one that must not (a scheduler or codec rewrite) leaves
// this table alone.
var pinnedRuns = map[string]struct {
	digest uint64
	trace  uint64
	pass   bool
}{
	"e12.json":     {0x0f0b82851391c0d6, 0x59f8dfc1428312fc, true},
	"e13-hot.json": {0x64e09fceec44fc9a, 0x96c3118a110d7262, true},
	failingExample: {0x39f6eb00f04200bf, 0xb55081a328552afd, false},
}

func checkPinned(t *testing.T, name string, res *Result) {
	t.Helper()
	want, ok := pinnedRuns[name]
	if !ok {
		t.Fatalf("committed plan %s has no pinned digest", name)
	}
	if res.Digest != want.digest || res.TraceDigest != want.trace || res.Pass() != want.pass {
		t.Fatalf("%s: digest %016x, trace %016x, pass %v; pinned %016x, trace %016x, pass %v (violations %+v)",
			name, res.Digest, res.TraceDigest, res.Pass(), want.digest, want.trace, want.pass, res.Violations())
	}
}

// TestPlanDigests runs every committed plan at its own seed and full size
// and checks it against pinnedRuns. E12's full-size run is
// TestPlanE12Shape's, which checks it there.
func TestPlanDigests(t *testing.T) {
	for _, name := range examplePlans(t) {
		t.Run(name, func(t *testing.T) {
			if name == "e12.json" {
				t.Skip("checked by TestPlanE12Shape's full-size run")
			}
			plan := loadExample(t, name)
			checkPinned(t, name, Run(plan, plan.Seed))
		})
	}
}
