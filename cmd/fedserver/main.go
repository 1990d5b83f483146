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

// The index flags are package-level so that a test can read their defaults.
var (
	noIndex   = flag.Bool("no-index", false, "skip building the shortcut index")
	customize = flag.Bool("customize", true, "derive the shortcut index by weight customization over a topology-only skeleton (contract once per graph, customize per traffic version); -customize=false runs the full federated witness build instead")
)

// refuseReindex explains why -reindex-interval cannot run beside the index
// fedserver serves, or returns nil. A customized index — the -customize
// default, or restored from a customized snapshot — is kept exact by
// /traffic's in-place updates, so a periodic re-derivation would elect the
// winners it already holds while holding up every traffic write.
func refuseReindex(fed *fedroad.Federation, customize bool) error {
	if !customize && !(fed.HasIndex() && fed.IndexStats().Customized) {
		return nil
	}
	return errors.New("-reindex-interval refused: the index is customized, and /traffic's in-place updates already keep it exact, " +
		"so a periodic re-derivation would recompute the winners it holds while blocking every traffic write; " +
		"drop -reindex-interval, or start with -customize=false to keep a periodic witness rebuild")
}

// deriveIndex gives fed the index fedserver serves and returns the start-up
// line that says how. An index restored from a snapshot, of either kind,
// keeps serving with no MPC derivation; noIndex derives none; otherwise
// customize derives the customized index, contracting the skeleton it reads,
// and !customize the witness build. Nothing else contracts a skeleton.
func deriveIndex(fed *fedroad.Federation, noIndex, customize bool) (string, error) {
	if st := fed.IndexStats(); fed.HasIndex() {
		return fmt.Sprintf("index: restored from snapshot (%d shortcuts, customized: %v), MPC derivation skipped",
			st.Shortcuts, st.Customized), nil
	}
	if noIndex {
		return "index: none (-no-index), routes search the flat network", nil
	}
	kind, derive := "witness build", fed.BuildIndex
	if customize {
		kind, derive = "customized", fed.CustomizeIndex
	}
	start := time.Now()
	if err := derive(); err != nil {
		return "", err
	}
	st := fed.IndexStats()
	return fmt.Sprintf("index: %d shortcuts, %s in %v (%d Fed-SACs, %d MPC rounds)",
		st.Shortcuts, kind, time.Since(start).Round(time.Millisecond), st.SAC.Compares, st.SAC.Rounds), nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		dataset  = flag.String("dataset", "", "named dataset (CAL-S, BJ-S, FLA-S)")
		graphF   = flag.String("graph", "", "serve an imported graph file (binary snapshot or text)")
		n        = flag.Int("n", 2000, "generated network size when no dataset/graph is given")
		silos    = flag.Int("silos", 3, "number of data silos")
		seed     = flag.Uint64("seed", 1, "seed of the generated network and the simulated silo weights (MPC masks are drawn fresh on every start)")
		reindex  = flag.Duration("reindex-interval", 0, "periodically rebuild the witness index from live weights when traffic has moved (0 = disabled); needs -customize=false: refused beside a customized index, which /traffic's in-place updates already keep exact")
		maxConc  = flag.Int("max-concurrent", 0, "max in-flight queries (0 = 4x GOMAXPROCS)")
		maxQueue = flag.Int("max-queue", 0, "queries allowed to queue beyond -max-concurrent before shedding with 429 (0 = unbounded queue, no shedding)")
		cacheCap = flag.Int("cache", 4096, "traffic-version-keyed result cache capacity in entries (0 = off)")
		persist  = flag.String("persist", "", "directory for state snapshots + traffic WAL; restarts restore the index without an MPC rebuild")
		pprofOn  = flag.Bool("pprof", false, "mount /debug/pprof/* profiling handlers")

		roundTimeout = flag.Duration("round-timeout", 0, "per-frame MPC round timeout; a slow/dead silo fails the query with 503/504 instead of hanging it (0 = no timeout)")

		meshTCP = flag.Bool("mesh-tcp", false, "run MPC rounds over a loopback TCP mesh with multiplexed lanes, heartbeats and automatic redial (the deployment-shaped wire path)")
		tlsCert = flag.String("tls-cert", "", "silo certificate PEM for mutual-auth TLS on mesh links (requires -mesh-tcp, -tls-key and -tls-ca)")
		tlsKey  = flag.String("tls-key", "", "silo private key PEM for mesh mTLS")
		tlsCA   = flag.String("tls-ca", "", "federation CA PEM both directions of every mesh link verify against")
	)
	flag.Parse()

	g, w0, unitWeights, err := graph.LoadNetwork(*dataset, *graphF, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
		os.Exit(1)
	}
	if unitWeights {
		log.Printf("WARNING: graph file %q has no weight section — serving UNIT travel times (1ms per segment); every ETA is fabricated. Reported as fedserver_unit_weights on /stats and /metrics.", *graphF)
	}
	silosW := fedroad.SimulateCongestion(w0, *silos, fedroad.Moderate, *seed+1)
	cfg := fedroad.Config{
		RoundTimeout: *roundTimeout,
		MeshTCP:      *meshTCP,
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
		log.Printf("persist: restored from %s in %v (index: %v, replayed deltas: %d)",
			*persist, pers.restoreTime.Round(time.Millisecond), pers.restoredIndex, pers.replayedDeltas)
	}
	if *reindex > 0 && !*noIndex {
		if err := refuseReindex(fed, *customize); err != nil {
			fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := deriveIndex(fed, *noIndex, *customize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
		os.Exit(1)
	}
	log.Print(line)
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
