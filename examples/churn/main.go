// Churn: the paper's dynamicity demonstration as a runnable example.
// Users keep editing a shared document while peers join, leave
// gracefully, and crash underneath them. Timestamp continuity and
// eventual consistency survive all of it.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/ringtest"
)

func main() {
	// The ring runs in virtual time: every run prints the same schedule.
	cluster := ringtest.NewVirtualCluster(10, core.Options{})
	defer cluster.Close()
	clk := cluster.Clk
	ctx, cancel := clk.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const editors = 3
	doc := "Main.WebHome"
	replicas := make([]*core.Replica, editors)
	for i := range replicas {
		replicas[i] = core.NewReplica(cluster.Peers[i], doc, fmt.Sprintf("editor%d", i+1))
	}

	fmt.Printf("initial master of %q: %s\n", doc, cluster.MasterOf(uint64(ids.HashTS(doc))).Addr())

	var work []func()
	// Editors: 5 paced commits each.
	for _, r := range replicas {
		work = append(work, func() {
			for k := 0; k < 5; k++ {
				if err := r.Insert(0, fmt.Sprintf("%s commit %d", r.Site(), k+1)); err != nil {
					log.Printf("%s insert: %v", r.Site(), err)
					return
				}
				ts, err := r.Commit(ctx)
				if err != nil {
					log.Printf("%s commit: %v", r.Site(), err)
					return
				}
				fmt.Printf("  %s committed at ts=%d\n", r.Site(), ts)
				_ = clk.Sleep(ctx, 150*time.Millisecond)
			}
		})
	}

	// Churn: joins, a graceful leave and a crash, concurrent with editing.
	work = append(work, func() {
		rng := rand.New(rand.NewSource(7))
		events := []string{"join", "crash", "join", "leave", "crash"}
		for _, ev := range events {
			_ = clk.Sleep(ctx, 250*time.Millisecond)
			switch ev {
			case "join":
				if p, err := cluster.AddPeer(cluster.Peers[0]); err == nil {
					fmt.Printf("  [churn] peer %s joined\n", p.Addr())
				}
			case "leave", "crash":
				cands := cluster.Live()[editors:]
				if len(cands) <= 3 {
					continue
				}
				victim := cands[rng.Intn(len(cands))]
				if ev == "leave" {
					if err := cluster.Leave(victim); err == nil {
						fmt.Printf("  [churn] peer %s left gracefully\n", victim.Addr())
					}
				} else {
					cluster.Crash(victim)
					fmt.Printf("  [churn] peer %s CRASHED\n", victim.Addr())
				}
			}
		}
	})
	clk.Gather(work...)

	if err := cluster.WaitStable(time.Minute); err != nil {
		log.Fatal(err)
	}
	for _, r := range replicas {
		if err := r.Pull(ctx); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nfinal master of %q: %s\n", doc, cluster.MasterOf(uint64(ids.HashTS(doc))).Addr())
	converged := true
	for _, r := range replicas[1:] {
		if r.Text() != replicas[0].Text() {
			converged = false
		}
	}
	fmt.Printf("final ts=%d on every replica, converged=%v\n", replicas[0].CommittedTS(), converged)
	fmt.Printf("\ndocument after churn:\n%s\n", replicas[0].Text())
}
