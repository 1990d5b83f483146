// TCP federation: three silos run the secure comparison protocol over real
// TCP sockets on localhost — a lane of the multiplexed mesh, the same wire
// path a multi-machine deployment uses. Each silo contributes its private
// partial cost of two candidate routes; the mesh reveals only which route is
// jointly cheaper.
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/mpc"
	"repro/internal/transport"
)

func main() {
	const parties = 3

	// Each silo's private partial costs of two candidate routes A and B
	// (milliseconds of observed travel time).
	costA := []int64{412_000, 388_500, 405_200}
	costB := []int64{399_000, 401_700, 404_100}
	jointA, jointB := int64(0), int64(0)
	for p := 0; p < parties; p++ {
		jointA += costA[p]
		jointB += costB[p]
	}

	// The preprocessing dealer distributes correlated randomness for one
	// comparison (in production this is the MPC stack's offline phase).
	dealer := mpc.NewDealer(parties, 99)
	blocks := dealer.CmpTuples()

	// Reserve localhost ports for the mesh.
	addrs := make([]string, parties)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	fmt.Println("silo endpoints:")
	for i, a := range addrs {
		fmt.Printf("  silo %d: %s\n", i, a)
	}

	// Every silo dials the mesh (all must come up together), then runs the
	// protocol on its end of one lane. Heartbeats are off so the frame count
	// below is the protocol's alone; hang-up waits until everyone is done.
	meshes := make([]*transport.Mesh, parties)
	results := make([]bool, parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var err error
			meshes[p], err = transport.DialMeshMux(p, parties, addrs,
				transport.MeshOptions{Heartbeat: -1, DialTimeout: 5 * time.Second})
			if err != nil {
				log.Fatalf("silo %d: %v", p, err)
			}
			results[p], err = mpc.RunCompareParty(meshes[p].OpenLane(), costA[p]-costB[p], &blocks[p])
			if err != nil {
				log.Fatalf("silo %d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
	var totalBytes, totalMsgs int64
	for _, m := range meshes {
		st := m.Stats()
		totalBytes += st.BytesSent
		totalMsgs += st.MsgsSent
		m.Close()
	}

	fmt.Printf("\neach silo learned only the comparison bit: route A < route B = %v\n", results[0])
	for p := 1; p < parties; p++ {
		if results[p] != results[0] {
			log.Fatal("silos disagree — protocol bug")
		}
	}
	fmt.Printf("wire cost: %d bytes in %d lane frames across the mesh (%d rounds)\n",
		totalBytes, totalMsgs, mpc.RoundsPerCompare)
	fmt.Printf("ground truth (never revealed on the wire): joint A = %d, joint B = %d\n", jointA, jointB)
	if results[0] != (jointA < jointB) {
		log.Fatal("comparison result wrong")
	}
	fmt.Println("result verified against the plaintext ground truth ✓")
}
