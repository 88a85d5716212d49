package simtest

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPlanRoundTrip(t *testing.T) {
	p := loadExample(t, "e12.json")
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the plan:\n%+v\nvs\n%+v", p, got)
	}
}

func TestPlanParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","peers":8,"docs":1,"editors_per_doc":1,"edits_per_editor":1,"peer_count":9}`))
	if err == nil || !strings.Contains(err.Error(), "peer_count") {
		t.Fatalf("typo'd knob not rejected: %v", err)
	}
}

func TestPlanParseRejectsTrailingContent(t *testing.T) {
	const a = `{"name":"a","peers":8,"docs":1,"editors_per_doc":1,"edits_per_editor":1}`
	if _, err := Parse([]byte(a + "\n")); err != nil {
		t.Fatalf("one plan and a newline: %v", err)
	}
	for _, tail := range []string{"\n" + `{"name":"b","peers":512}`, " x", "}"} {
		if p, err := Parse([]byte(a + tail)); err == nil {
			t.Errorf("%q after the plan object parsed as plan %q", tail, p.Name)
		}
	}
}

// FuzzPlan: Parse never panics, and a plan that parses and validates
// survives Marshal and a second Parse unchanged.
func FuzzPlan(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(plansDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed plans under %s: %v", plansDir, err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Parse(b)
		if err != nil || p.Validate() != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("valid plan does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("marshalled plan does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the plan:\n%+v\nvs\n%+v", p, back)
		}
	})
}

func TestPlanValidate(t *testing.T) {
	base := func() Plan {
		return Plan{Name: "t", Peers: 8, Docs: 2, EditorsPerDoc: 2, EditsPerEditor: 1}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base plan invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Plan)
		want string
	}{
		{"too few peers", func(p *Plan) { p.Peers = 3 }, "at least 4"},
		{"sessions exceed peers", func(p *Plan) { p.EditorsPerDoc = 4 }, "host peers"},
		{"viewers without gateways", func(p *Plan) { p.ViewersPerEditor = 1 }, "gateways"},
		{"loss out of range", func(p *Plan) { p.LossRate = 1 }, "loss_rate"},
		{"unknown fault", func(p *Plan) { p.Faults = []FaultEvent{{Kind: "meteor"}} }, "unknown kind"},
		{"partition without duration", func(p *Plan) { p.Faults = []FaultEvent{{Kind: FaultPartition}} }, "duration_ms"},
		{"boundary-author via gateway", func(p *Plan) {
			p.Gateways = 1
			p.Faults = []FaultEvent{{Kind: FaultCrashBoundaryAuthor}}
		}, "direct sessions"},
	}
	for _, c := range cases {
		p := base()
		c.mut(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestPlanApplyShort(t *testing.T) {
	p := loadExample(t, "e12.json")
	s := p.ApplyShort()
	if s.Short != nil {
		t.Fatal("Short not consumed")
	}
	if s.Peers != 64 || s.Docs != 2 || s.EditorsPerDoc != 2 || s.EditsPerEditor != 5 {
		t.Fatalf("override not applied: %+v", s)
	}
	if s.Churn[0].Crash != 2 || s.Churn[0].Join != 2 {
		t.Fatalf("churn not scaled: %+v", s.Churn)
	}
	// Faults targeting docs beyond the shrunken range vanish at compile.
	if doomed := s.DoomedDocs(); len(doomed) != 2 || !doomed[0] || !doomed[1] {
		t.Fatalf("doomed docs after short override: %v", doomed)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("short variant invalid: %v", err)
	}
}
