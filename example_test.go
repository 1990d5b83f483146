package fedroad_test

import (
	"fmt"
	"log"

	fedroad "repro"
)

// The basic flow: assemble a federation, build the shortcut index, answer a
// secure joint shortest-path query.
func Example() {
	g, w0 := fedroad.GenerateGridNetwork(12, 12, 7)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Moderate, 8)
	f, err := fedroad.New(g, w0, silos)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	route, _, err := f.ShortestPath(0, 143)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("found:", route.Found)
	fmt.Println("junctions on route:", len(route.Path))
	// Output:
	// found: true
	// junctions on route: 23
}

// A federation without an index searches the flat network; the answer is
// identical, only the secure-comparison cost differs.
func ExampleFederation_ShortestPath() {
	g, w0 := fedroad.GenerateGridNetwork(10, 10, 3)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Slight, 4)
	f, err := fedroad.New(g, w0, silos)
	if err != nil {
		log.Fatal(err)
	}
	// Without an index a route searches the flat network.
	slow, slowStats, err := f.ShortestPath(0, 99)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	fast, fastStats, err := f.ShortestPath(0, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same joint cost:", fedroad.JointCost(fast) == fedroad.JointCost(slow))
	fmt.Println("index uses fewer secure comparisons:", fastStats.SAC.Compares < slowStats.SAC.Compares)
	// Output:
	// same joint cost: true
	// index uses fewer secure comparisons: true
}

// A federated kNN query (Fed-SSSP, Alg. 1): the k nearest junctions by
// joint travel time, nearest first.
func ExampleFederation_NearestNeighbors() {
	g, w0 := fedroad.GenerateGridNetwork(8, 8, 5)
	silos := fedroad.SimulateCongestion(w0, 2, fedroad.Moderate, 6)
	f, err := fedroad.New(g, w0, silos)
	if err != nil {
		log.Fatal(err)
	}
	routes, _, err := f.NearestNeighbors(0, 4)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range routes {
		fmt.Printf("%d: junction %d\n", i, r.Path[len(r.Path)-1])
	}
	// Output:
	// 0: junction 0
	// 1: junction 8
	// 2: junction 1
	// 3: junction 16
}

// Real-time traffic: silos update their private observations and the
// federated index refreshes incrementally.
func ExampleFederation_ApplyTraffic() {
	g, w0 := fedroad.GenerateGridNetwork(8, 8, 9)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Free, 10)
	f, err := fedroad.New(g, w0, silos)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	a := g.FindArc(0, 1)
	var jam []fedroad.TrafficUpdate
	for p := 0; p < f.Silos(); p++ { // observed by every silo
		jam = append(jam, fedroad.TrafficUpdate{Silo: p, Arc: a, TravelMs: w0[a] * 10})
	}
	stats, err := f.ApplyTraffic(jam)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("changed arcs:", stats.ChangedArcs)
	fmt.Println("update cheaper than rebuild:",
		stats.SAC.Compares < f.IndexStats().SAC.Compares)
	// Output:
	// changed arcs: 1
	// update cheaper than rebuild: true
}
