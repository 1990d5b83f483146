// Command fedserver runs a federated routing service over HTTP: it assembles
// a traffic data federation, builds (or restores) the federated shortcut
// index and serves secure shortest-path, kNN and traffic-update requests.
//
//	fedserver -n 2000 -silos 3 -addr :8080
//
//	curl 'localhost:8080/route?s=12&t=1780'
//	curl 'localhost:8080/knn?s=12&k=5'
//	curl -X POST localhost:8080/traffic -d '[{"silo":0,"arc":17,"travel_ms":90000}]'
//	curl 'localhost:8080/stats'
//
// Serving-tier behavior (see DESIGN.md, "Serving tier"):
//
//   - -cache N keeps a traffic-version-keyed LRU of route/kNN results with
//     request coalescing; a traffic update invalidates it for free.
//   - -max-queue N sheds queries beyond maxConcurrent+N with 429 +
//     Retry-After instead of queueing without bound.
//   - -persist DIR snapshots the full federation state (weights, version,
//     index) and WAL-logs traffic deltas, so a restart skips the MPC index
//     rebuild and replays only what the snapshot missed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	fedroad "repro"
	"repro/internal/graph"
)

// loadNetwork resolves the served road network from the three mutually
// layered sources: an imported graph file, a named dataset, or a generated
// road-like network. unitWeights reports that the graph file carried no
// weight section and every travel time was fabricated as 1ms — the caller
// must surface that loudly.
func loadNetwork(dataset, graphF string, n int, seed uint64) (g *fedroad.Graph, w0 fedroad.Weights, unitWeights bool, err error) {
	switch {
	case graphF != "":
		g, w0, err = fedroad.LoadGraphFile(graphF)
		if err != nil {
			return nil, nil, false, err
		}
		w0, unitWeights = graph.UnitIfMissing(g, w0)
	case dataset != "":
		// GenerateDataset panics on unknown names (its callers are experiment
		// code with hard-wired names); a user-supplied -dataset must fail with
		// a clean error instead.
		if _, ok := graph.FindDataset(dataset); !ok {
			names := ""
			for i, spec := range graph.Datasets() {
				if i > 0 {
					names += ", "
				}
				names += spec.Name
			}
			return nil, nil, false, fmt.Errorf("unknown dataset %q (available: %s)", dataset, names)
		}
		g, w0, _ = graph.GenerateDataset(dataset)
	default:
		g, w0 = fedroad.GenerateRoadNetwork(n, seed)
	}
	return g, w0, unitWeights, nil
}

// refuseReindex explains why -reindex-interval cannot run beside the index
// fedserver serves, or returns nil. A customized index — asked for with
// -customize or restored from a customized snapshot — is kept exact by
// /traffic's in-place updates, so a periodic re-derivation would elect the
// winners it already holds while holding up every traffic write.
func refuseReindex(fed *fedroad.Federation, customize bool) error {
	if !customize && !(fed.HasIndex() && fed.IndexStats().Customized) {
		return nil
	}
	return errors.New("-reindex-interval refused: the index is customized, and /traffic's in-place updates already keep it exact, " +
		"so a periodic re-derivation would recompute the winners it holds while blocking every traffic write; drop -reindex-interval")
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		dataset  = flag.String("dataset", "", "named dataset (CAL-S, BJ-S, FLA-S)")
		graphF   = flag.String("graph", "", "serve an imported graph file (binary snapshot or text)")
		n        = flag.Int("n", 2000, "generated network size when no dataset/graph is given")
		silos    = flag.Int("silos", 3, "number of data silos")
		seed     = flag.Uint64("seed", 1, "random seed")
		noIndex  = flag.Bool("no-index", false, "skip building the shortcut index")
		custIdx  = flag.Bool("customize", false, "derive the shortcut index by weight customization over a topology-only skeleton (contract once per graph, customize per traffic version) instead of a full federated contraction")
		reindex  = flag.Duration("reindex-interval", 0, "periodically rebuild the witness index from live weights when traffic has moved (0 = disabled); refused beside a customized index, which /traffic's in-place updates already keep exact")
		protocol = flag.Bool("protocol", false, "run the full MPC protocol per comparison (default: ideal mode with analytic cost accounting)")
		maxConc  = flag.Int("max-concurrent", 0, "max in-flight queries (0 = 4x GOMAXPROCS)")
		maxQueue = flag.Int("max-queue", 0, "queries allowed to queue beyond -max-concurrent before shedding with 429 (0 = unbounded queue, no shedding)")
		cacheCap = flag.Int("cache", 4096, "traffic-version-keyed result cache capacity in entries (0 = off)")
		persist  = flag.String("persist", "", "directory for state snapshots + traffic WAL; restarts restore the index without an MPC rebuild")
		pprofOn  = flag.Bool("pprof", false, "mount /debug/pprof/* profiling handlers")

		roundTimeout = flag.Duration("round-timeout", 0, "per-frame MPC round timeout; a slow/dead silo fails the query with 503/504 instead of hanging it (protocol mode; 0 = no timeout)")
		sacRetries   = flag.Int("sac-retries", 0, "bounded retries of a Fed-SAC round after a transient transport failure")
		sacBackoff   = flag.Duration("sac-retry-backoff", 10*time.Millisecond, "backoff before the first Fed-SAC retry, doubled per retry")

		meshTCP = flag.Bool("mesh-tcp", false, "run MPC rounds over a loopback TCP mesh with multiplexed lanes, heartbeats and automatic redial (protocol mode; the deployment-shaped wire path)")
		tlsCert = flag.String("tls-cert", "", "silo certificate PEM for mutual-auth TLS on mesh links (requires -mesh-tcp, -tls-key and -tls-ca)")
		tlsKey  = flag.String("tls-key", "", "silo private key PEM for mesh mTLS")
		tlsCA   = flag.String("tls-ca", "", "federation CA PEM both directions of every mesh link verify against")
	)
	flag.Parse()

	g, w0, unitWeights, err := loadNetwork(*dataset, *graphF, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
		os.Exit(1)
	}
	if unitWeights {
		log.Printf("WARNING: graph file %q has no weight section — serving UNIT travel times (1ms per segment); every ETA is fabricated. Surfaced as unit_weights in /stats.", *graphF)
	}
	silosW := fedroad.SimulateCongestion(w0, *silos, fedroad.Moderate, *seed+1)
	cfg := fedroad.Config{
		Seed:            *seed,
		RoundTimeout:    *roundTimeout,
		SACRetries:      *sacRetries,
		SACRetryBackoff: *sacBackoff,
		MeshTCP:         *meshTCP,
	}
	if *protocol {
		cfg.Mode = fedroad.ModeProtocol
	}
	if *tlsCert != "" || *tlsKey != "" || *tlsCA != "" {
		cfg.MeshTLS = &fedroad.TLSConfig{CertFile: *tlsCert, KeyFile: *tlsKey, CAFile: *tlsCA}
	}
	fed, err := fedroad.New(g, w0, silosW, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
		os.Exit(1)
	}
	defer fed.Close()
	log.Printf("federation: %d vertices, %d arcs, %d silos", g.NumVertices(), g.NumArcs(), *silos)
	if *meshTCP {
		sec := "plaintext"
		if cfg.MeshTLS.Enabled() {
			sec = "mTLS"
		}
		log.Printf("mesh: MPC rounds over loopback TCP (%s), %d physical links per silo", sec, *silos-1)
	}

	var pers *persister
	if *persist != "" {
		pers, err = newPersister(fed, *persist)
		if err == nil {
			_, err = pers.Restore()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
			os.Exit(1)
		}
		ps := pers.Stats()
		log.Printf("persist: restored from %s in %dms (index: %v, replayed deltas: %d)",
			*persist, ps.RestoreMs, ps.RestoredIndex, ps.ReplayedDeltas)
	}
	if *reindex > 0 && !*noIndex {
		if err := refuseReindex(fed, *custIdx); err != nil {
			fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
			os.Exit(1)
		}
	}

	if *custIdx && !fed.HasSkeleton() {
		// Topology-only contraction: plaintext, no MPC, reusable for every
		// future traffic version. Restoring a customized index derived it
		// already, in which case this is skipped.
		start := time.Now()
		if err := fed.BuildSkeleton(); err != nil {
			fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
			os.Exit(1)
		}
		sst := fed.SkeletonStats()
		log.Printf("skeleton: %d shortcuts in %v (plaintext topology contraction)",
			sst.Shortcuts, time.Since(start).Round(time.Millisecond))
	}
	if !*noIndex && !fed.HasIndex() {
		start := time.Now()
		if *custIdx {
			err = fed.CustomizeIndex()
		} else {
			err = fed.BuildIndex()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
			os.Exit(1)
		}
		st := fed.IndexStats()
		if st.Customized {
			log.Printf("index: %d shortcuts customized in %v (%d levels, %d ticks, %d MPC rounds)",
				st.Shortcuts, time.Since(start).Round(time.Millisecond), st.Levels, st.Rounds, st.SAC.Rounds)
		} else {
			log.Printf("index: %d shortcuts in %v (%d contraction rounds)",
				st.Shortcuts, time.Since(start).Round(time.Millisecond), st.Rounds)
		}
	} else if fed.HasIndex() {
		log.Printf("index: restored from snapshot (%d shortcuts, customized: %v), MPC rebuild skipped",
			fed.IndexStats().Shortcuts, fed.IndexStats().Customized)
	}
	if pers != nil {
		// Fold the restored-or-built index and any replayed deltas into a
		// fresh snapshot so the next restart reads one file and zero deltas.
		if err := pers.Snapshot(); err != nil {
			fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
			os.Exit(1)
		}
	}

	srv := newServer(fed, *maxConc, *maxQueue, *cacheCap)
	srv.pprof = *pprofOn
	srv.unitWeights = unitWeights
	srv.persist = pers
	if *cacheCap > 0 {
		log.Printf("result cache: %d entries, traffic-version keyed", *cacheCap)
	}
	if srv.pprof {
		log.Printf("pprof enabled at /debug/pprof/")
	}
	log.Printf("serving up to %d concurrent queries (max queue: %d)", srv.pipe.Stats().MaxConcurrent, *maxQueue)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *reindex > 0 && !*noIndex {
		// Rolling rebuild of the witness index from live weights on a timer.
		// Queries keep answering with the old index until the replacement is
		// published; traffic batches wait for the rebuild.
		go func() {
			tick := time.NewTicker(*reindex)
			defer tick.Stop()
			lastVer := fed.TrafficVersion()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				ver := fed.TrafficVersion()
				if ver == lastVer {
					continue // nothing moved; the index is already current
				}
				lastVer = ver
				start := time.Now()
				if _, err := fed.ApplyTraffic(nil, fedroad.RebuildIndex); err != nil {
					log.Printf("reindex: %v", err)
					continue
				}
				st := fed.IndexStats()
				log.Printf("reindex: published in %v (%d MPC rounds)",
					time.Since(start).Round(time.Millisecond), st.SAC.Rounds)
			}
		}()
		log.Printf("reindex: rolling rebuild every %v", *reindex)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on http://%s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight MPC queries finish (each
	// closes its own session), then snapshot.
	log.Printf("shutdown: draining in-flight queries")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: drain incomplete (%v), closing", err)
		httpSrv.Close()
	}
	if pers != nil {
		if err := pers.Snapshot(); err != nil {
			log.Printf("shutdown: final snapshot failed: %v", err)
		}
		pers.Close()
	}
	log.Printf("shutdown: complete")
}
