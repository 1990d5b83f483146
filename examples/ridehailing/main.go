// Ride-hailing: the paper's motivating scenario (Fig. 1). Each mobility
// platform alone holds a noisy, partial view of city traffic; routing on a
// single platform's data picks slower roads. The federation routes on the
// joint view without any platform revealing its observations, and the
// resulting trips are measurably faster.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	fedroad "repro"
	"repro/internal/graph"
	"repro/internal/traffic"
)

func main() {
	// A mid-sized city grid under heavy congestion (the ground truth no one
	// fully observes).
	g, w0 := fedroad.GenerateGridNetwork(40, 40, 11)
	wTrue := traffic.GroundTruth(w0, fedroad.Heavy, 12)

	// Two platforms each drove a disjoint half of the taxi trajectories and
	// estimated edge travel times from their own observations.
	obs := traffic.Simulate(g, wTrue, w0, 4000, 0.25, 13)
	shares := obs.Split(2)
	platformW := []fedroad.Weights{obs.Estimate(shares[0]), obs.Estimate(shares[1])}

	// The federation of the two platforms.
	fed, err := fedroad.New(g, w0, platformW)
	if err != nil {
		log.Fatal(err)
	}
	if err := fed.BuildIndex(); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(14, 14))
	const trips = 120
	var soloDelay, fedDelay int64
	worse := 0
	for i := 0; i < trips; i++ {
		s := fedroad.Vertex(rng.IntN(g.NumVertices()))
		t := fedroad.Vertex(rng.IntN(g.NumVertices()))
		if s == t {
			continue
		}
		// True optimum (omniscient routing) as the reference.
		optimal, _ := graph.DijkstraTo(g, wTrue, s, t)

		// Platform 0 routing alone on its private estimate.
		_, soloRoute := graph.DijkstraTo(g, platformW[0], s, t)
		soloActual, _ := graph.PathCost(g, wTrue, soloRoute)

		// Federated routing on the joint view (secure: platform estimates
		// never leave their silos).
		route, _, err := fed.ShortestPath(s, t, fedroad.QueryOptions{BatchedMPC: true})
		if err != nil {
			log.Fatal(err)
		}
		fedActual, _ := graph.PathCost(g, wTrue, route.Path)

		soloDelay += soloActual - optimal
		fedDelay += fedActual - optimal
		if fedActual > soloActual {
			worse++
		}
	}
	fmt.Printf("over %d trips under heavy congestion:\n", trips)
	fmt.Printf("  platform-0-only routing: %6.1fs mean delay vs optimal\n", float64(soloDelay)/float64(trips)/1000)
	fmt.Printf("  federated routing:       %6.1fs mean delay vs optimal\n", float64(fedDelay)/float64(trips)/1000)
	fmt.Printf("  federated route slower than solo on %d/%d trips\n", worse, trips)
}
