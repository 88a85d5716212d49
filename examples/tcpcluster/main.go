// Tcpcluster: the same protocol over real TCP sockets — five peers on
// localhost, no simulation. Demonstrates that the framed TCP RPC transport and
// the simulated one are interchangeable behind the core API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/transport"
)

func main() {
	cfg := chord.Config{
		SuccListLen:     6,
		StabilizeEvery:  20 * time.Millisecond,
		FixFingersEvery: 10 * time.Millisecond,
		CheckPredEvery:  40 * time.Millisecond,
		CallTimeout:     2 * time.Second,
	}
	opts := core.Options{Chord: cfg}

	const n = 5
	peers := make([]*core.Peer, 0, n)
	for i := 0; i < n; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		p := core.NewPeer(ep, opts)
		if i == 0 {
			p.Create()
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := p.Join(ctx, peers[0].Addr())
			cancel()
			if err != nil {
				log.Fatalf("join: %v", err)
			}
		}
		fmt.Printf("peer %d up at %s\n", i, p.Addr())
		peers = append(peers, p)
	}
	defer func() {
		for _, p := range peers {
			p.Stop()
		}
	}()

	// Wait for the TCP ring to stabilize.
	time.Sleep(500 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	alice := core.NewReplica(peers[1], "Main.WebHome", "alice")
	bob := core.NewReplica(peers[3], "Main.WebHome", "bob")

	alice.SetText("hello over real TCP")
	ts, err := alice.Commit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice committed at ts=%d\n", ts)

	bob.SetText("bob was here")
	ts, err = bob.Commit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob committed at ts=%d\n", ts)

	if err := alice.Pull(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged over TCP: %v\n", alice.Text() == bob.Text())
	fmt.Println(alice.Text())
}
