package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/maintain"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// TestPeerBornWired checks what the wiring setters used to provide
// without calling one: a ring built through core.NewPeer alone has every
// layer of every peer — chord, dht, kts, maintain — recording into that
// peer's one flight recorder, events fired under a traced request carry
// its trace ID, and the master's validate span continues the editor's
// trace.
func TestPeerBornWired(t *testing.T) {
	clk := vclock.NewVirtual()
	tr := trace.New(clk, 8192)
	const interval = 4
	c := newClusterWith(t, 6, core.Options{
		Clock:              clk,
		Tracer:             tr,
		FlightRecorder:     64,
		CheckpointInterval: interval,
		Maintain:           &maintain.Config{TruncateEvery: 50 * time.Millisecond},
	}, transport.WithLatency(transport.ConstantLatency(time.Millisecond)))
	ctx := context.Background()

	// A seventh peer joins under a span: the join at the joiner is a
	// chord event of that trace.
	joinSp := tr.Start("join", "")
	joinTrace := joinSp.Context().TraceID
	joiner := c.NewPeer()
	err := joiner.Join(trace.NewContext(ctx, joinSp), c.Peers[0].Addr())
	joinSp.EndErr(err)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	peers := c.Peers

	// Commit across a checkpoint boundary, each commit under its own span.
	key := "born-wired"
	rep := core.NewReplica(peers[1], key, "alice")
	commitTraces := make(map[uint64]bool)
	for i := 0; i < interval+2; i++ {
		if err := rep.Insert(0, fmt.Sprintf("line %d", i)); err != nil {
			t.Fatal(err)
		}
		sp := tr.Start("commit", key)
		_, err := rep.Commit(trace.NewContext(ctx, sp))
		sp.EndErr(err)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		commitTraces[sp.Context().TraceID] = true
	}

	// The master's maintenance engine truncates the checkpointed prefix
	// on its own tick; the Log-Peers sweep their floors in response.
	var events []trace.SpanData
	layers := map[string]int{}
	for waited := time.Duration(0); layers["maintain"] == 0 || layers["dht"] == 0; waited += 50 * time.Millisecond {
		if waited > 30*time.Second {
			t.Fatalf("no maintain and dht events after %v: %v", waited, layers)
		}
		_ = clk.Sleep(ctx, 50*time.Millisecond)
		events, layers = events[:0], map[string]int{}
		for _, p := range peers {
			for _, e := range p.Flight.Events() {
				if e.Peer != string(p.Addr()) || !e.End.Equal(e.Start) {
					t.Fatalf("event %+v in the recorder of %s, want its peer and zero width", e, p.Addr())
				}
				events = append(events, e)
				layer, _, _ := strings.Cut(e.Kind, "-")
				switch e.Kind {
				case "ckpt-fallback", "ckpt-repair", "log-truncate":
					layer = "maintain"
				}
				layers[layer]++
			}
		}
	}
	for _, layer := range []string{"chord", "dht", "kts", "maintain"} {
		if layers[layer] == 0 {
			t.Errorf("no %s event in any peer's recorder: %v", layer, layers)
		}
	}

	if joinTrace == 0 || commitTraces[0] {
		t.Fatalf("spans without a trace ID: join %d, commits %v", joinTrace, commitTraces)
	}
	grants := 0
	for _, e := range events {
		switch e.Kind {
		case "chord-join":
			if e.Trace != joinTrace {
				t.Errorf("%s on %s has trace %d, want the join's %d", e.Kind, e.Peer, e.Trace, joinTrace)
			}
		case "kts-grant":
			grants++
			if !commitTraces[e.Trace] {
				t.Errorf("kts-grant %s on %s has trace %d, not a commit's", e.Detail, e.Peer, e.Trace)
			}
		}
	}
	if grants != interval+2 {
		t.Errorf("%d kts-grant events, want %d", grants, interval+2)
	}

	var master *core.Peer
	for _, p := range peers {
		if p.Node.Owns(ids.HashTS(key)) {
			master = p
		}
	}
	validates := 0
	for _, d := range tr.Recent(0) {
		if d.Kind == "validate" && d.Peer == string(master.Addr()) && commitTraces[d.Trace] {
			validates++
		}
	}
	if validates < len(commitTraces) {
		t.Errorf("%d validate spans on master %s share a commit's trace ID, want >= %d",
			validates, master.Addr(), len(commitTraces))
	}
}
