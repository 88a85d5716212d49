package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"p2pltr/internal/metrics"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/ringtest"
)

// RunA1 is the availability ablation: the P2P-Log's durability under
// Log-Peer crashes is the product of three mechanisms —
// the Hr replication factor n (the paper's sendToPublish), the successor
// copies (the paper's Log-Peers-Succ role), and fetch-time read repair.
// A1 toggles each and measures what survives a crash burst.
func RunA1(cfg Config) error {
	type variant struct {
		name       string
		succCopies bool
		readRepair bool
		replicas   int
	}
	variants := []variant{
		{"n=3 +succ +repair (default)", true, true, 3},
		{"n=3 +succ -repair", true, false, 3},
		{"n=3 -succ +repair", false, true, 3},
		{"n=3 -succ -repair", false, false, 3},
		{"n=1 +succ +repair", true, true, 1},
		{"n=1 -succ -repair", false, false, 1},
	}
	const (
		peers   = 10
		records = 40
		crashes = 2
	)
	trials := 3
	if cfg.Quick {
		trials = 1
	}
	tbl := metrics.NewTable("variant", "crashes", "trials", "records", "mean-retrievable", "availability%")
	for _, v := range variants {
		totalOK := 0
		for trial := 0; trial < trials; trial++ {
			ok, err := runA1Trial(cfg, v.replicas, v.succCopies, v.readRepair, crashes, records, peers, int64(trial))
			if err != nil {
				return fmt.Errorf("A1 %q trial %d: %w", v.name, trial, err)
			}
			totalOK += ok
		}
		mean := float64(totalOK) / float64(trials)
		tbl.AddRow(v.name, crashes, trials, records, mean, 100*mean/float64(records))
	}
	fmt.Fprint(cfg.Out, tbl.String())
	fmt.Fprintln(cfg.Out, "shape check: each mechanism adds availability; the default stack survives the crash burst, bare n=1 does not")
	return nil
}

func runA1Trial(cfg Config, replicas int, succCopies, readRepair bool, crashes, records, peers int, trial int64) (int, error) {
	opts := ringtest.FastOptions()
	opts.LogReplicas = replicas
	c, err := ringtest.NewCluster(peers, opts)
	if err != nil {
		return 0, err
	}
	defer c.Stop()
	for _, p := range c.Peers {
		p.DHT.SetSuccessorReplication(succCopies)
		p.Log.SetReadRepair(readRepair)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	log := c.Peers[0].Log
	for i := 0; i < records; i++ {
		rec := p2plog.Record{
			Key: fmt.Sprintf("doc-%d", i%8), TS: uint64(i/8 + 1),
			PatchID: fmt.Sprintf("u#%d", i), Patch: []byte("payload"),
		}
		if _, err := log.Publish(ctx, rec); err != nil {
			return 0, err
		}
	}
	// One read pass (gives read repair its chance), then crash a burst.
	if readRepair {
		for i := 0; i < records; i++ {
			_, _ = log.Exists(ctx, fmt.Sprintf("doc-%d", i%8), uint64(i/8+1))
		}
	}
	// Let maintenance push successor copies before the burst.
	time.Sleep(20 * opts.Chord.StabilizeEvery)

	rng := rand.New(rand.NewSource(cfg.Seed + trial*97))
	perm := rng.Perm(len(c.Peers))
	for i := 0; i < crashes; i++ {
		c.Crash(c.Peers[perm[i]])
	}
	if err := c.WaitStable(time.Minute); err != nil {
		return 0, err
	}
	reader := c.Live()[0].Log
	reader.SetReadRepair(false) // count what survived, do not fix it
	ok := 0
	for i := 0; i < records; i++ {
		if found, _ := reader.Exists(ctx, fmt.Sprintf("doc-%d", i%8), uint64(i/8+1)); found {
			ok++
		}
	}
	return ok, nil
}
