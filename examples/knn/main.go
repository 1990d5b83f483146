// Nearest drivers: a federated kNN query (Fed-SSSP, Alg. 1). A dispatch
// service finds the k drivers closest to a rider *by joint travel time* —
// which depends on real-time traffic that only the federation's silos
// observe — without any silo revealing its observations.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	fedroad "repro"
)

func main() {
	g, w0 := fedroad.GenerateRoadNetwork(3000, 21)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 22)
	fed, err := fedroad.New(g, w0, silos)
	if err != nil {
		log.Fatal(err)
	}

	// Drivers wait at random junctions.
	rng := rand.New(rand.NewPCG(23, 23))
	drivers := map[fedroad.Vertex]string{}
	for i := 0; i < 40; i++ {
		drivers[fedroad.Vertex(rng.IntN(g.NumVertices()))] = fmt.Sprintf("driver-%02d", i)
	}

	rider := fedroad.Vertex(rng.IntN(g.NumVertices()))
	fmt.Printf("rider at junction %d; %d drivers on the map\n\n", rider, len(drivers))

	// Expand the federated SSSP until three drivers are settled. (Distances
	// here are driver→rider pickup times on the reversed trip; on this
	// symmetric network the joint costs coincide.)
	const want = 3
	found := 0
	k := 16
	for found < want && k <= g.NumVertices() {
		routes, stats, err := fed.NearestNeighbors(rider, k)
		if err != nil {
			log.Fatal(err)
		}
		found = 0
		for _, r := range routes {
			v := r.Path[len(r.Path)-1]
			if name, ok := drivers[v]; ok {
				found++
				fmt.Printf("  %-10s at junction %-5d pickup ~%.1fs away\n",
					name, v, float64(fedroad.JointCost(r))/float64(fed.Silos())/1000)
				if found == want {
					fmt.Printf("\nsearch cost: %d settled vertices, %d Fed-SAC comparisons\n",
						stats.SettledVertices, stats.SAC.Compares)
					return
				}
			}
		}
		k *= 2 // widen the kNN radius and retry
		fmt.Printf("  (only %d drivers within the %d nearest junctions; widening)\n", found, k/2)
	}
}
