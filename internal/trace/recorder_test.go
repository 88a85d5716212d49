package trace

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pltr/internal/vclock"
)

// The ring keeps exactly the last keep events; older ones fall off and
// are counted as dropped, and Events stays oldest-first across the
// wrap-around.
func TestRingOverflowEvictsOldest(t *testing.T) {
	r := NewRecorder(vclock.System, "peer-a", 4)
	for i := 1; i <= 10; i++ {
		r.Record(nil, "kind", fmt.Sprintf("k%02d", i), "")
	}
	if r.Total() != 10 {
		t.Fatalf("Total() = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, want := range []string{"k07", "k08", "k09", "k10"} {
		if evs[i].Key != want {
			t.Fatalf("ring[%d].Key = %q, want %q (oldest first)", i, evs[i].Key, want)
		}
		if evs[i].ID != uint64(7+i) {
			t.Fatalf("ring[%d].ID = %d, want %d", i, evs[i].ID, 7+i)
		}
		if evs[i].Peer != "peer-a" {
			t.Fatalf("ring[%d].Peer = %q", i, evs[i].Peer)
		}
	}
}

// Before overflow, Dropped is zero and everything recorded is retained.
func TestRingUnderCapacity(t *testing.T) {
	r := NewRecorder(vclock.System, "p", 8)
	r.Record(nil, "a", "", "")
	r.Record(nil, "b", "", "")
	if r.Dropped() != 0 {
		t.Fatalf("Dropped() = %d before overflow", r.Dropped())
	}
	if evs := r.Events(); len(evs) != 2 || evs[0].Kind != "a" || evs[1].Kind != "b" {
		t.Fatalf("Events() = %+v", r.Events())
	}
}

// A generous keep reserves nothing up front: the buffer grows with the
// events recorded.
func TestRingGrowsLazily(t *testing.T) {
	r := NewRecorder(vclock.System, "p", 1<<20)
	for _, k := range []string{"a", "b", "c"} {
		r.Record(nil, k, "", "")
	}
	if n := len(r.Events()); n != 3 {
		t.Fatalf("ring holds %d events, want 3", n)
	}
	if c := cap(r.ring.buf); c > 64 {
		t.Fatalf("three events hold a buffer of capacity %d", c)
	}
}

// A nil recorder is a valid no-op — instrumented code never branches.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Record(context.Background(), "k", "key", "d")
	if r.Events() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder accessors not empty")
	}
}

// Events are stamped with the trace active on the triggering context,
// whichever carrier holds it — a live local span or the remote context a
// transport extracted — and a nil ctx (local timers) stamps 0.
func TestTraceIDStamping(t *testing.T) {
	sp := New(vclock.System, 8).Start("commit", "doc")
	r := NewRecorder(vclock.System, "p", 8)
	r.Record(NewContext(context.Background(), sp), "local", "", "")
	r.Record(ContextWithRemote(context.Background(), SpanContext{TraceID: 0xbeef, SpanID: 3}), "remote", "", "")
	r.Record(nil, "timer", "", "")
	evs := r.Events()
	local := sp.Context().TraceID
	if local == 0 || evs[0].Trace != local || evs[1].Trace != 0xbeef || evs[2].Trace != 0 {
		t.Fatalf("trace stamps %x/%x/%x, want %x/beef/0", evs[0].Trace, evs[1].Trace, evs[2].Trace, local)
	}
}

// Merge assembles per-peer rings into one (Start, Peer, ID)-ordered global
// timeline.
func TestMergeTimelineOrder(t *testing.T) {
	v := vclock.NewVirtual()
	v.Register()
	defer v.Unregister()
	ra := NewRecorder(v, "peer-a", 8)
	rb := NewRecorder(v, "peer-b", 8)
	ctx := context.Background()

	rb.Record(nil, "b1", "", "")
	ra.Record(nil, "a1", "", "")
	ra.Record(nil, "a2", "", "") // same instant as a1: the sequence number breaks the tie
	_ = v.Sleep(ctx, 5*time.Millisecond)
	rb.Record(nil, "b2", "", "")

	got := Merge(ra, rb)
	want := []string{"a1", "a2", "b1", "b2"}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("timeline[%d].Kind = %q, want %q (order: same-instant by peer then seq)", i, got[i].Kind, k)
		}
	}
}

// CausalSlice keeps key-matching events plus — through shared trace
// IDs — the cross-peer events of the same traces, whatever their key.
func TestCausalSliceTraceClosure(t *testing.T) {
	events := []SpanData{
		{Kind: "kts-grant", Key: "doc-a", Trace: 7},
		{Kind: "dht-rehome", Key: "slot-x", Trace: 7},  // same trace, other key
		{Kind: "kts-grant", Key: "doc-b", Trace: 9},    // other doc, other trace
		{Kind: "chord-suspect", Key: "", Trace: 0},     // untraced background
		{Kind: "ckpt-publish", Key: "doc-a", Trace: 0}, // key match, no trace
	}
	got := CausalSlice(events, "doc-a")
	want := []string{"kts-grant", "dht-rehome", "ckpt-publish"}
	if len(got) != len(want) {
		t.Fatalf("slice has %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("slice[%d].Kind = %q, want %q", i, got[i].Kind, k)
		}
	}
	if len(CausalSlice(events, "nope")) != 0 {
		t.Fatal("slice for an unknown key not empty")
	}
}

// The digest is order- and content-sensitive: the determinism tests
// compare whole merged timelines through it.
func TestDigestSensitivity(t *testing.T) {
	a := []SpanData{{ID: 1, Peer: "p", Kind: "x"}, {ID: 2, Peer: "p", Kind: "y"}}
	b := []SpanData{{ID: 2, Peer: "p", Kind: "y"}, {ID: 1, Peer: "p", Kind: "x"}}
	if DigestEvents(a) == DigestEvents(b) {
		t.Fatal("digest insensitive to order")
	}
	c := []SpanData{{ID: 1, Peer: "p", Kind: "x"}, {ID: 2, Peer: "p", Kind: "z"}}
	if DigestEvents(a) == DigestEvents(c) {
		t.Fatal("digest insensitive to content")
	}
	if DigestEvents(a) != DigestEvents(append([]SpanData{}, a...)) {
		t.Fatal("digest not reproducible")
	}
}

// Under a virtual clock, event stamps are exact virtual instants, and an
// event is zero-width.
func TestVirtualClockStamps(t *testing.T) {
	v := vclock.NewVirtual()
	v.Register()
	defer v.Unregister()
	r := NewRecorder(v, "p", 8)
	r.Record(nil, "t0", "", "")
	_ = v.Sleep(context.Background(), 42*time.Millisecond)
	r.Record(nil, "t1", "", "")
	evs := r.Events()
	if d := evs[1].Start.Sub(evs[0].Start); d != 42*time.Millisecond {
		t.Fatalf("virtual stamp delta %v, want exactly 42ms", d)
	}
	if evs[1].Total() != 0 {
		t.Fatalf("event spans %v, want zero width", evs[1].Total())
	}
}
