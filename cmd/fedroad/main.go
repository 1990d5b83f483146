// Command fedroad answers ad-hoc federated shortest-path queries on a
// generated or loaded road network, printing the route and the secure
// computation cost.
//
// Usage:
//
//	fedroad [flags]
//
// Examples:
//
//	fedroad -n 2000 -s 3 -t 1500                # SPSP on a generated network
//	fedroad -dataset BJ-S -s 10 -t 7000         # SPSP on a named dataset
//	fedroad -n 2000 -s 3 -knn 8                 # kNN from vertex 3
//	fedroad -graph net.gr -s 0 -t 99 -protocol  # full MPC over a file graph
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	fedroad "repro"
	"repro/internal/graph"
	"repro/internal/traffic"
)

func main() {
	var (
		dataset   = flag.String("dataset", "", "named dataset (CAL-S, BJ-S, FLA-S)")
		n         = flag.Int("n", 1000, "generated network size when no dataset/graph is given")
		graphFile = flag.String("graph", "", "load a road network from a file (binary snapshot or DIMACS-like text)")
		silos     = flag.Int("silos", 3, "number of data silos")
		level     = flag.String("level", "moderate", "congestion level: free|slight|moderate|heavy")
		seed      = flag.Uint64("seed", 1, "random seed")
		src       = flag.Int("s", 0, "source vertex")
		dst       = flag.Int("t", -1, "target vertex (SPSP)")
		knn       = flag.Int("knn", 0, "k nearest neighbors from -s instead of SPSP")
		noIndex   = flag.Bool("no-index", false, "do not build the federated shortcut index: routes search the flat network")
		protocol  = flag.Bool("protocol", false, "run the full MPC protocol per comparison")

		roundTimeout = flag.Duration("round-timeout", 0, "per-frame MPC round timeout; a slow/dead silo fails the query instead of hanging it (protocol mode; 0 = no timeout)")
		sacRetries   = flag.Int("sac-retries", 0, "bounded retries of a Fed-SAC round after a transient transport failure")
		sacBackoff   = flag.Duration("sac-retry-backoff", 10*time.Millisecond, "backoff before the first Fed-SAC retry, doubled per retry")

		meshTCP = flag.Bool("mesh-tcp", false, "run MPC rounds over a loopback TCP mesh with multiplexed lanes and automatic redial (requires -protocol)")
		tlsCert = flag.String("tls-cert", "", "silo certificate PEM for mutual-auth TLS on mesh links (requires -mesh-tcp, -tls-key and -tls-ca)")
		tlsKey  = flag.String("tls-key", "", "silo private key PEM for mesh mTLS")
		tlsCA   = flag.String("tls-ca", "", "federation CA PEM both directions of every mesh link verify against")
	)
	flag.Parse()

	lvl, err := parseLevel(*level)
	fail(err)

	var g *fedroad.Graph
	var w0 fedroad.Weights
	switch {
	case *graphFile != "":
		g, w0, err = fedroad.LoadGraphFile(*graphFile)
		fail(err)
		if w0 == nil { // weightless snapshot: unit weights
			w0 = make(fedroad.Weights, g.NumArcs())
			for a := range w0 {
				w0[a] = 1
			}
		}
	case *dataset != "":
		// GenerateDataset panics on unknown names; fail with a clean error
		// for a user-supplied -dataset instead.
		if _, ok := graph.FindDataset(*dataset); !ok {
			fail(fmt.Errorf("unknown dataset %q (available: CAL-S, BJ-S, FLA-S)", *dataset))
		}
		g, w0, _ = graph.GenerateDataset(*dataset)
	default:
		g, w0 = fedroad.GenerateRoadNetwork(*n, *seed)
	}
	fmt.Printf("road network: %d vertices, %d arcs\n", g.NumVertices(), g.NumArcs())

	cfg := fedroad.Config{
		Seed:            *seed,
		RoundTimeout:    *roundTimeout,
		SACRetries:      *sacRetries,
		SACRetryBackoff: *sacBackoff,
	}
	if *protocol {
		cfg.Mode = fedroad.ModeProtocol
	}
	if *meshTCP {
		if !*protocol {
			fail(fmt.Errorf("-mesh-tcp requires -protocol (ideal mode exchanges no messages)"))
		}
		cfg.MeshTCP = true
	}
	if *tlsCert != "" || *tlsKey != "" || *tlsCA != "" {
		cfg.MeshTLS = &fedroad.TLSConfig{CertFile: *tlsCert, KeyFile: *tlsKey, CAFile: *tlsCA}
	}
	silosW := fedroad.SimulateCongestion(w0, *silos, lvl, *seed+1)
	fed, err := fedroad.New(g, w0, silosW, cfg)
	fail(err)
	defer fed.Close()

	if !*noIndex {
		start := time.Now()
		fail(fed.BuildIndex())
		st := fed.IndexStats()
		fmt.Printf("federated shortcut index: %d shortcuts, %d Fed-SACs, built in %v\n",
			st.Shortcuts, st.SAC.Compares, time.Since(start).Round(time.Millisecond))
	}

	// The measured stack (fedserver, benchmark/): independent comparisons
	// share protocol instances.
	opt := fedroad.QueryOptions{BatchedMPC: true}

	if *knn > 0 {
		routes, stats, err := fed.NearestNeighbors(fedroad.Vertex(*src), *knn, opt)
		fail(err)
		fmt.Printf("\n%d nearest vertices to %d on the joint road network:\n", *knn, *src)
		for i, r := range routes {
			fmt.Printf("  %2d. vertex %-6d joint cost %s  path %s\n",
				i+1, r.Path[len(r.Path)-1], fmtJoint(fed, r), fmtPath(r.Path))
		}
		printStats(stats)
		return
	}

	if *dst < 0 {
		*dst = g.NumVertices() - 1
	}
	route, stats, err := fed.ShortestPath(fedroad.Vertex(*src), fedroad.Vertex(*dst), opt)
	fail(err)
	if !route.Found {
		fmt.Printf("no route from %d to %d\n", *src, *dst)
		return
	}
	fmt.Printf("\njoint shortest path %d -> %d (%d segments), joint cost %s\n",
		*src, *dst, len(route.Path)-1, fmtJoint(fed, route))
	fmt.Printf("path: %s\n", fmtPath(route.Path))
	printStats(stats)
}

func parseLevel(s string) (traffic.Level, error) {
	switch strings.ToLower(s) {
	case "free":
		return traffic.Free, nil
	case "slight":
		return traffic.Slight, nil
	case "moderate":
		return traffic.Moderate, nil
	case "heavy":
		return traffic.Heavy, nil
	}
	return traffic.Level{}, fmt.Errorf("unknown congestion level %q", s)
}

func fmtJoint(fed *fedroad.Federation, r fedroad.Route) string {
	mean := float64(fedroad.JointCost(r)) / float64(fed.Silos()) / 1000
	return fmt.Sprintf("%.1fs travel time", mean)
}

func fmtPath(p []fedroad.Vertex) string {
	if len(p) <= 12 {
		return fmt.Sprint(p)
	}
	return fmt.Sprintf("%v ... %v (%d vertices)", p[:6], p[len(p)-6:], len(p))
}

func printStats(st fedroad.Stats) {
	fmt.Printf("cost: %d settled vertices, %d Fed-SACs, %d MPC rounds, %d bytes, %v local + %v simulated network\n",
		st.SettledVertices, st.SAC.Compares, st.SAC.Rounds, st.SAC.Bytes,
		st.WallTime.Round(time.Microsecond), st.SAC.SimNet.Round(time.Microsecond))
	fmt.Printf("phases: %v queue, %v sac-wait, %v relax (sac-wait overlaps queue)\n",
		st.Phases.Queue.Round(time.Microsecond), st.Phases.SACWait.Round(time.Microsecond),
		st.Phases.Relax.Round(time.Microsecond))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedroad: %v\n", err)
		os.Exit(1)
	}
}
