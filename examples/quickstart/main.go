// Quickstart: assemble a three-silo traffic federation, derive the federated
// shortcut index and answer one secure joint shortest-path query.
package main

import (
	"fmt"
	"log"

	fedroad "repro"
)

func main() {
	// A shared road-network topology with public free-flow travel times.
	g, w0 := fedroad.GenerateRoadNetwork(2000, 42)

	// Three mobility platforms, each privately observing the same moderate
	// congestion with independent sensor noise.
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 7)

	// The federation: weights stay at their silos; every cross-silo cost
	// comparison runs through the secret-sharing Fed-SAC operator.
	fed, err := fedroad.New(g, w0, silos)
	if err != nil {
		log.Fatal(err)
	}

	// Pre-compute the federated shortcut index (collaborative contraction
	// hierarchy; consistent shortcut sets, private partial weights): contract
	// the public topology once, then customize its shortcuts' weights.
	if err := fed.CustomizeIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d shortcuts\n", fed.IndexStats().Shortcuts)

	// One secure joint shortest-path query with the paper's best stack
	// (shortcut index + Fed-AMPS pruning + TM-tree queue, comparisons
	// batched into shared rounds).
	route, stats, err := fed.ShortestPath(12, 1780)
	if err != nil {
		log.Fatal(err)
	}
	if !route.Found {
		log.Fatal("no route")
	}
	fmt.Printf("route has %d segments\n", len(route.Path)-1)
	fmt.Printf("joint travel time: %.1fs (mean over %d silos)\n",
		float64(fedroad.JointCost(route))/float64(fed.Silos())/1000, fed.Silos())
	fmt.Printf("secure cost: %d Fed-SAC comparisons, %d MPC rounds, %d bytes\n",
		stats.SAC.Compares, stats.SAC.Rounds, stats.SAC.Bytes)
}
