package simtest

import (
	"reflect"
	"testing"
)

// smallPlan exercises every fault kind the schema knows at a size that
// runs in a couple of wall seconds: churn, a partition window and a
// master kill over direct editing sessions with deletes and loss.
func smallPlan() Plan {
	return Plan{
		Name:           "small-all-faults",
		Seed:           11,
		Peers:          24,
		Docs:           2,
		EditorsPerDoc:  2,
		EditsPerEditor: 4,
		DeleteFraction: 0.2,
		LossRate:       0.005,
		Churn:          []ChurnBatch{{AtMS: 8_000, Crash: 2, Join: 2}},
		Faults: []FaultEvent{
			{Kind: FaultPartition, AtMS: 6_000, DurationMS: 3_000, Fraction: 0.25},
			{Kind: FaultKillMaster, Doc: 0, AtMS: 10_000},
		},
	}
}

// stripWall zeroes the one intentionally nondeterministic field.
func stripWall(r *Result) *Result {
	c := *r
	c.Wall = 0
	return &c
}

func TestRunSmallPlan(t *testing.T) {
	res := Run(smallPlan(), 11)
	if !res.Pass() {
		t.Fatalf("small plan failed: %+v", res.Violations())
	}
	if res.Commits == 0 || res.Sent == 0 {
		t.Fatalf("degenerate run: %d commits, %d messages", res.Commits, res.Sent)
	}
	kinds := map[string]int{}
	for _, ev := range res.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"commit", "crash", "join", "partition", "heal", "kill-master"} {
		if kinds[want] == 0 {
			t.Errorf("no %q event recorded (got %v)", want, kinds)
		}
	}
	if len(res.Docs) != 2 {
		t.Fatalf("doc reports: %+v", res.Docs)
	}
	for _, d := range res.Docs {
		if d.FinalTS == 0 || d.ConvLag < 0 {
			t.Errorf("doc report degenerate: %+v", d)
		}
	}
}

// TestRunDeterministic is the campaign engine's core assumption, over
// smallPlan and every committed plan at its short size: same plan + same
// seed → identical events, verdicts, reports, run digest, flight-recorder
// digest and span-stream digest, bitwise.
func TestRunDeterministic(t *testing.T) {
	type tc struct {
		name string
		plan Plan
		seed int64
	}
	cases := []tc{{"small-all-faults", smallPlan(), 11}}
	for _, name := range examplePlans(t) {
		p := loadExample(t, name)
		cases = append(cases, tc{name, p.ApplyShort(), p.Seed})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := Run(c.plan, c.seed), Run(c.plan, c.seed)
			if pass := c.name != failingExample; a.Pass() != pass {
				t.Fatalf("pass = %v, want %v: %+v", a.Pass(), pass, a.Violations())
			}
			if !reflect.DeepEqual(a.Events, b.Events) {
				for i := 0; i < min(len(a.Events), len(b.Events)); i++ {
					if a.Events[i] != b.Events[i] {
						t.Fatalf("event order diverged at %d:\n%+v\nvs\n%+v", i, a.Events[i], b.Events[i])
					}
				}
				t.Fatalf("event counts diverged: %d vs %d", len(a.Events), len(b.Events))
			}
			if a.Digest != b.Digest || a.FlightDigest != b.FlightDigest || a.TraceDigest != b.TraceDigest {
				t.Fatalf("digests diverged: run %x vs %x, flight %x vs %x, trace %x vs %x",
					a.Digest, b.Digest, a.FlightDigest, b.FlightDigest, a.TraceDigest, b.TraceDigest)
			}
			if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
				t.Fatalf("results diverged:\n%+v\nvs\n%+v", stripWall(a), stripWall(b))
			}
			if len(a.FlightEvents) == 0 || a.TraceSpans == 0 {
				t.Fatalf("%d flight events, %d spans: a digest comparison is vacuous", len(a.FlightEvents), a.TraceSpans)
			}
			// A different seed must actually change the trace — otherwise
			// the comparisons above prove nothing.
			d := Run(c.plan, c.seed+1)
			if a.Digest == d.Digest || a.TraceDigest == d.TraceDigest {
				t.Fatal("different seeds produced identical traces; determinism test is vacuous")
			}
		})
	}
}

// TestRunGatewayPlan routes the workload through the serving layer and
// checks the feed-staleness invariant runs.
func TestRunGatewayPlan(t *testing.T) {
	p := Plan{
		Name:             "small-gateway",
		Peers:            16,
		Gateways:         2,
		Docs:             2,
		EditorsPerDoc:    2,
		EditsPerEditor:   3,
		ViewersPerEditor: 1,
	}
	res := Run(p, 5)
	if !res.Pass() {
		t.Fatalf("gateway plan failed: %+v", res.Violations())
	}
	names := map[string]bool{}
	for _, c := range res.Checks {
		names[c.Name] = true
	}
	if !names["feed-staleness"] {
		t.Fatalf("gateway plan skipped the staleness invariant: %+v", res.Checks)
	}
	if res.Delivers == 0 {
		t.Fatal("no follower deliveries observed")
	}
}

func TestRunInvalidPlanFailsRunCheck(t *testing.T) {
	res := Run(Plan{Name: "broken", Peers: 2}, 1)
	if res.Pass() {
		t.Fatal("invalid plan passed")
	}
	if got := res.ViolationNames(); len(got) != 1 || got[0] != "run" {
		t.Fatalf("violations = %v, want [run]", got)
	}
}
