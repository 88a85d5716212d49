package core_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/msg"
	"p2pltr/internal/wal"
)

func TestPersistentReplicaSurvivesRestart(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, c, 30*time.Second)
	path := filepath.Join(t.TempDir(), "alice.journal")

	r, err := core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	r.SetText("first\nsecond")
	if _, err := r.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Uncommitted edit persisted explicitly.
	if err := r.Insert(2, "tentative"); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen from the journal on the same peer.
	r2, err := core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.CloseJournal()
	if r2.CommittedTS() != 1 {
		t.Fatalf("restored ts = %d", r2.CommittedTS())
	}
	if r2.Text() != "first\nsecond\ntentative" {
		t.Fatalf("restored text %q", r2.Text())
	}
	if !r2.Dirty() {
		t.Fatalf("tentative edit lost across restart")
	}
	// The restored replica can commit the tentative edit and continue.
	ts, err := r2.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ts != 2 {
		t.Fatalf("post-restart commit ts = %d", ts)
	}
}

func TestPersistentReplicaPatchIDContinuity(t *testing.T) {
	// The author sequence number must survive restarts: re-using a
	// PatchID would break the crash-recovery protocol's idempotence.
	c := newCluster(t, 3)
	ctx := ctxT(t, c, 30*time.Second)
	path := filepath.Join(t.TempDir(), "j")

	r, err := core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	r.SetText("a")
	if _, err := r.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	r.CloseJournal()

	r2, err := core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.CloseJournal()
	r2.SetText("a\nb")
	if _, err := r2.Commit(ctx); err != nil {
		t.Fatalf("second commit after restart: %v", err)
	}
	// Both patches must be distinct in the log.
	rec1, err := c.Peers[0].Log.Fetch(ctx, "doc", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := c.Peers[0].Log.Fetch(ctx, "doc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec1.PatchID == rec2.PatchID {
		t.Fatalf("PatchID reused across restart: %s", rec1.PatchID)
	}
}

func TestPersistentReplicaWrongIdentityRejected(t *testing.T) {
	c := newCluster(t, 2)
	ctx := ctxT(t, c, 20*time.Second)
	path := filepath.Join(t.TempDir(), "j")
	r, err := core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	r.SetText("x")
	if _, err := r.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	r.CloseJournal()

	if _, err := core.OpenReplica(c.Peers[0], "other-doc", "alice", path); err == nil {
		t.Fatalf("journal accepted for wrong document")
	}
	if _, err := core.OpenReplica(c.Peers[0], "doc", "bob", path); err == nil {
		t.Fatalf("journal accepted for wrong site")
	}
}

func TestPersistentReplicaManyCommitsCompact(t *testing.T) {
	c := newCluster(t, 3)
	ctx := ctxT(t, c, 60*time.Second)
	path := filepath.Join(t.TempDir(), "j")
	r, err := core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := r.Insert(0, fmt.Sprintf("line %d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want := r.Text()
	r.CloseJournal()

	r2, err := core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.CloseJournal()
	if r2.Text() != want || r2.CommittedTS() != 30 {
		t.Fatalf("restore after many commits: ts=%d", r2.CommittedTS())
	}
}

// TestGobJournalRejected: a journal whose snapshots were gob-encoded, as
// releases before the wire codec wrote them, fails to open with
// msg.ErrFormat naming gob instead of restoring anything.
func TestGobJournalRejected(t *testing.T) {
	c := newCluster(t, 1)
	path := filepath.Join(t.TempDir(), "j")
	j, err := wal.Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	st := struct {
		Key, Site        string
		Seq, CommittedTS uint64
		Lines            []string
	}{"doc", "alice", 3, 2, []string{"x"}}
	if err := gob.NewEncoder(&old).Encode(st); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(old.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = core.OpenReplica(c.Peers[0], "doc", "alice", path)
	if !errors.Is(err, msg.ErrFormat) || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("gob journal: err %v, want msg.ErrFormat naming gob", err)
	}
}

func TestSaveWithoutJournalIsNoop(t *testing.T) {
	c := newCluster(t, 1)
	r := core.NewReplica(c.Peers[0], "doc", "alice")
	if err := r.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := r.CloseJournal(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
