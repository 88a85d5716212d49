// Quickstart: build a small P2P-LTR ring in-process, edit a document from
// two user peers, and watch the timestamp validation + retrieval
// procedures reconcile them into the same state.
package main

import (
	"context"
	"fmt"
	"log"

	"p2pltr/internal/core"
	"p2pltr/internal/ringtest"
)

func main() {
	// A 5-peer DHT ring on a simulated network in virtual time (use
	// transport.ListenTCP and core.NewPeer directly for a real-network
	// deployment).
	cluster := ringtest.NewVirtualCluster(5, core.Options{})
	defer cluster.Close()
	ctx := context.Background()

	// Two users open the same wiki page on different peers.
	alice := core.NewReplica(cluster.Peers[0], "Main.WebHome", "alice")
	bob := core.NewReplica(cluster.Peers[1], "Main.WebHome", "bob")

	// Alice writes and commits: her tentative patch is timestamped by the
	// document's Master-key peer and published to the P2P-Log.
	alice.SetText("Welcome to the wiki!")
	ts, err := alice.Commit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice committed at ts=%d\n", ts)

	// Bob edits without having seen Alice's patch (he is still at ts=0).
	bob.SetText("Bob's notes")

	// Bob's commit is first refused (behind): he retrieves Alice's patch
	// in total order, transforms his tentative edit, and retries — all
	// inside Commit.
	ts, err = bob.Commit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob committed at ts=%d (after reconciling)\n", ts)

	// Alice pulls Bob's patch; both replicas converge byte-identically.
	if err := alice.Pull(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice sees:\n%s\n---\nbob sees:\n%s\n---\n", alice.Text(), bob.Text())
	fmt.Printf("converged: %v\n", alice.Text() == bob.Text())
}
