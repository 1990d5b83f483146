// Dynamic traffic: real-time congestion hits a corridor, every silo updates
// its private observation, and the federation's partial index update (§IV,
// Table II) refreshes the shortcut hierarchy in a fraction of the derivation cost
// — after which queries route around the jam.
package main

import (
	"fmt"
	"log"
	"time"

	fedroad "repro"
)

func main() {
	g, w0 := fedroad.GenerateGridNetwork(36, 36, 31)
	silos := fedroad.SimulateCongestion(w0, 3, fedroad.Slight, 32)
	fed, err := fedroad.New(g, w0, silos)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := fed.CustomizeIndex(); err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)
	fmt.Printf("index customized: %d shortcuts in %v (%d Fed-SACs)\n",
		fed.IndexStats().Shortcuts, buildTime.Round(time.Millisecond),
		fed.IndexStats().SAC.Compares)

	s, t := fedroad.Vertex(0), fedroad.Vertex(g.NumVertices()-1)
	before, _, err := fed.ShortestPath(s, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmorning route %d->%d: %d segments, %.1fs\n",
		s, t, len(before.Path)-1, meanSeconds(fed, before))

	// An accident blocks a stretch in the middle of the current route:
	// travel times on those segments jump 6x, observed by every silo.
	// ApplyTraffic applies the observations and refreshes the shortcut index
	// in one atomic step, so concurrent queries never see a half-updated
	// federation.
	var jammed []fedroad.Arc
	var updates []fedroad.TrafficUpdate
	mid := len(before.Path) / 2
	for i := mid - 3; i < mid+3 && i+1 < len(before.Path); i++ {
		a := g.FindArc(before.Path[i], before.Path[i+1])
		jammed = append(jammed, a)
		for p := 0; p < fed.Silos(); p++ {
			updates = append(updates, fedroad.TrafficUpdate{Silo: p, Arc: a, TravelMs: w0[a] * 6})
		}
	}
	start = time.Now()
	upd, err := fed.ApplyTraffic(updates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nincident on %d segments; partial index update: %v (%d Fed-SACs, %d shortcuts recomputed, %d added)\n",
		len(jammed), time.Since(start).Round(time.Millisecond),
		upd.SAC.Compares, upd.RecomputedShortcuts, upd.AddedShortcuts)
	fmt.Printf("update used %.1f%% of the construction comparisons\n",
		100*float64(upd.SAC.Compares)/float64(fed.IndexStats().SAC.Compares))

	after, _, err := fed.ShortestPath(s, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrerouted: %d segments, %.1fs (old route shares %.0f%% of its junctions)\n",
		len(after.Path)-1, meanSeconds(fed, after), 100*overlap(before.Path, after.Path))
	if meanSeconds(fed, after) > 6*meanSeconds(fed, before) {
		fmt.Println("warning: no useful detour exists around the incident")
	}
}

func meanSeconds(fed *fedroad.Federation, r fedroad.Route) float64 {
	return float64(fedroad.JointCost(r)) / float64(fed.Silos()) / 1000
}

func overlap(a, b []fedroad.Vertex) float64 {
	in := map[fedroad.Vertex]bool{}
	for _, v := range a {
		in[v] = true
	}
	common := 0
	for _, v := range b {
		if in[v] {
			common++
		}
	}
	return float64(common) / float64(len(b))
}
