// Collabwiki: the paper's motivating XWiki scenario. A team of users
// concurrently edits several wiki pages hosted on a P2P-LTR ring; pages
// are hot (everyone touches the same few), so the timestamp validation
// constantly detects concurrent updaters and reconciles via retrieval +
// operational transformation. At the end every user sees identical pages.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/ringtest"
	"p2pltr/internal/workload"
)

func main() {
	const (
		peers   = 8
		users   = 5
		pages   = 3
		rounds  = 4
		zipfExp = 1.5
	)
	cluster := ringtest.NewVirtualCluster(peers, core.Options{})
	defer cluster.Close()
	ctx, cancel := cluster.Clk.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	pageKeys := make([]string, pages)
	for i := range pageKeys {
		pageKeys[i] = fmt.Sprintf("Wiki.Page%c", 'A'+i)
	}

	// Each user holds a replica of every page on their home peer.
	type user struct {
		name     string
		replicas map[string]*core.Replica
		picker   *workload.ZipfKeys
	}
	team := make([]*user, users)
	for i := range team {
		u := &user{
			name:     fmt.Sprintf("user%d", i+1),
			replicas: map[string]*core.Replica{},
			picker:   workload.NewZipfKeys(pages, zipfExp, int64(100+i)),
		}
		for _, k := range pageKeys {
			u.replicas[k] = core.NewReplica(cluster.Peers[i%peers], k, u.name)
		}
		team[i] = u
	}

	fmt.Printf("%d users editing %d pages over a %d-peer ring...\n", users, pages, peers)
	var sessions []func()
	for _, u := range team {
		sessions = append(sessions, func() {
			for round := 0; round < rounds; round++ {
				// Pick a page with Zipf skew: Wiki.PageA is the hot one,
				// so most rounds contend on it.
				picked := u.picker.Next() // "doc-00i"
				key := pageKeys[int(picked[len(picked)-1]-'0')%pages]
				r := u.replicas[key]
				if err := r.Insert(0, fmt.Sprintf("%s wrote in round %d", u.name, round+1)); err != nil {
					log.Printf("%s: %v", u.name, err)
					return
				}
				if _, err := r.Commit(ctx); err != nil {
					log.Printf("%s commit: %v", u.name, err)
					return
				}
			}
		})
	}
	cluster.Clk.Gather(sessions...)

	// Everyone syncs all pages; verify convergence per page.
	for _, u := range team {
		for _, k := range pageKeys {
			if err := u.replicas[k].Pull(ctx); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, k := range pageKeys {
		ref := team[0].replicas[k]
		same := true
		for _, u := range team[1:] {
			if u.replicas[k].Text() != ref.Text() {
				same = false
			}
		}
		fmt.Printf("%s: ts=%d lines=%d converged=%v\n",
			k, ref.CommittedTS(), lineCount(ref.Text()), same)
	}
	hot := team[0].replicas[pageKeys[0]]
	behind, retrieved := hot.Stats()
	fmt.Printf("hot page contention at %s: behind-rounds=%d retrieved=%d\n", team[0].name, behind, retrieved)
	fmt.Printf("\nfinal content of %s:\n%s\n", pageKeys[0], hot.Text())
}

func lineCount(s string) int {
	if s == "" {
		return 0
	}
	n := 1
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			n++
		}
	}
	return n
}
