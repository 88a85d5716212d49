// Command p2pltr-node runs one P2P-LTR peer over real TCP, so a ring can
// be assembled from separate processes (or machines).
//
// Start a ring:
//
//	p2pltr-node -listen 127.0.0.1:7001
//	p2pltr-node -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//	p2pltr-node -listen 127.0.0.1:7003 -join 127.0.0.1:7001
//
// Optionally drive a scripted editing session from one node:
//
//	p2pltr-node -listen 127.0.0.1:7004 -join 127.0.0.1:7001 \
//	    -doc Main.WebHome -site alice -edits 5
//
// The node prints its ring status periodically and exits on SIGINT after
// leaving the ring gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/maintain"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		join      = flag.String("join", "", "bootstrap address of an existing ring member (empty = create a new ring)")
		doc       = flag.String("doc", "", "optionally edit this document key")
		site      = flag.String("site", "node", "site identity for edits")
		edits     = flag.Int("edits", 0, "number of scripted edits to commit on -doc")
		status    = flag.Duration("status", 5*time.Second, "status print interval (0 = off)")
		ckptEvery = flag.Uint64("checkpoint-interval", 0, "snapshot documents every N committed patches (0 = off)")
		doMaint   = flag.Bool("maintain", false, "run the self-healing maintenance engine for mastered keys")
		truncGap  = flag.Duration("truncate-every", maintain.DefaultTruncateEvery, "minimum spacing between automatic log truncations per key (with -maintain)")
		admission = flag.Int("admission-limit", 0, "max validators queued per hot key before shedding with retry-after (0 = unlimited)")
		metrics   = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus text), /trace (recent commit-pipeline spans) and /events (flight-recorder lifecycle events); empty = off")
	)
	flag.Parse()

	ep, err := transport.ListenTCP(*listen)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Chord: chord.DefaultConfig(), CheckpointInterval: *ckptEvery, AdmissionLimit: *admission}
	var tracer *trace.Tracer
	if *metrics != "" {
		tracer = trace.New(nil, 512) // system clock
		tracer.SetOrigin(*listen)
		opts.Tracer = tracer
		// The flight recorder backs the /events view: the last lifecycle
		// events (ring membership, grants, re-homes, checkpoints) of this
		// peer, each stamped with the trace ID active when it happened.
		opts.FlightRecorder = 512
	}
	if *doMaint {
		if *ckptEvery == 0 {
			fmt.Fprintln(os.Stderr, "warning: -maintain without -checkpoint-interval: fallback checkpoint production is disabled; the engine only repairs and truncates checkpoints other nodes produce")
		}
		opts.Maintain = &maintain.Config{TruncateEvery: *truncGap}
	}
	peer := core.NewPeer(ep, opts)
	fmt.Printf("p2pltr-node listening on %s (ring id %s)\n", ep.Addr(), peer.Node.ID())

	if *join == "" {
		peer.Create()
		fmt.Println("created a new ring")
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := peer.Join(ctx, transport.Addr(*join))
		cancel()
		if err != nil {
			fatal(fmt.Errorf("join %s: %w", *join, err))
		}
		fmt.Printf("joined ring via %s\n", *join)
	}

	if *metrics != "" {
		// Mount a gateway so the serving-layer counters (batching, route
		// cache, follower feeds) are live on this node too; it installs
		// itself as the peer's route cache, so the scripted -edits
		// replica below also benefits from memoized master routes.
		gw := gateway.New(peer, gateway.Config{})
		defer gw.Close()
		reg := peer.MetricsRegistry()
		gw.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
		})
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			n := 64
			if s := r.URL.Query().Get("n"); s != "" {
				if v, err := strconv.Atoi(s); err == nil && v > 0 {
					n = v
				}
			}
			evs := peer.Flight.Events()
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "flight recorder: %d events recorded, %d dropped from the ring\n",
				peer.Flight.Total(), peer.Flight.Dropped())
			if len(evs) > n {
				evs = evs[len(evs)-n:]
			}
			for _, ev := range evs {
				tr := "-"
				if ev.Trace != 0 {
					tr = fmt.Sprintf("%016x", ev.Trace)
				}
				fmt.Fprintf(w, "%s  %-16s %-24s trace %s  %s\n",
					ev.Start.Format(time.RFC3339Nano), ev.Kind, ev.Key, tr, ev.Detail)
			}
		})
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			n := 32
			if s := r.URL.Query().Get("n"); s != "" {
				if v, err := strconv.Atoi(s); err == nil && v > 0 {
					n = v
				}
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "recent spans (newest first, %d ended total):\n", tracer.Ended())
			tracer.WriteRecent(w, n)
			fmt.Fprintln(w)
			fmt.Fprintln(w, "per-stage latency summary:")
			tracer.StageSummary(w)
		})
		go func() {
			fmt.Printf("metrics on http://%s/metrics, traces on http://%s/trace, lifecycle events on http://%s/events\n", *metrics, *metrics, *metrics)
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "metrics server:", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *status > 0 {
		go func() {
			t := time.NewTicker(*status)
			defer t.Stop()
			for range t.C {
				line := fmt.Sprintf("[status] succ=%s pred=%s stored=%d",
					peer.Node.Successor(), peer.Node.Predecessor(), peer.DHT.Store().Len())
				if peer.Maint != nil {
					if m := peer.Maint.Counters().String(); m != "" {
						line += " maintain{" + m + "}"
					}
				}
				fmt.Println(line)
			}
		}()
	}

	if *doc != "" && *edits > 0 {
		go func() {
			ctx := context.Background()
			r := core.NewReplica(peer, *doc, *site)
			if err := r.Pull(ctx); err != nil {
				fmt.Println("[edit] initial pull:", err)
			}
			for i := 0; i < *edits; i++ {
				if err := r.Insert(0, fmt.Sprintf("%s edit %d at %s", *site, i+1, time.Now().Format(time.RFC3339))); err != nil {
					fmt.Println("[edit] insert:", err)
					return
				}
				// With -metrics-addr the commit is traced end to end (a
				// nil tracer makes the span a no-op).
				sp := tracer.Start("commit", *doc)
				ts, err := r.Commit(trace.NewContext(ctx, sp))
				if err != nil {
					sp.EndErr(err)
					fmt.Println("[edit] commit:", err)
					return
				}
				sp.Mark("ack")
				sp.End()
				fmt.Printf("[edit] committed patch %d at ts=%d\n", i+1, ts)
				time.Sleep(time.Second)
			}
			fmt.Printf("[edit] final document:\n%s\n", r.Text())
		}()
	}

	<-stop
	fmt.Println("leaving the ring...")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := peer.Leave(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "leave:", err)
	}
	_ = ep.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
