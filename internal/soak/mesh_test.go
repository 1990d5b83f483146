package soak

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	fedroad "repro"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/mpc"
	"repro/internal/transport"
)

// TestPartiesRunTheSessionSearch: P parties, each running partyQuery over one
// transport.Mem, answer every route exactly as a flat fedroad session's
// batched ShortestPath does — path, partials and found — through the same
// Fed-SAC instances: every party records the same instance widths, the Mem
// carries the session's bytes and messages, and the instances cost its
// comparisons and rounds. Both take their options from core.RouteOptions; a
// drift in how either runs the search fails here.
func TestPartiesRunTheSessionSearch(t *testing.T) {
	for _, tc := range []struct{ silos, n int }{{3, 300}, {5, 120}} {
		t.Run(fmt.Sprintf("P=%d", tc.silos), func(t *testing.T) {
			g, w0 := fedroad.GenerateRoadNetwork(tc.n, 1)
			silosW := fedroad.SimulateCongestion(w0, tc.silos, fedroad.Moderate, 2)
			facade, err := fedroad.New(g, w0, silosW)
			if err != nil {
				t.Fatal(err)
			}
			defer facade.Close()
			sess := facade.Session()
			defer sess.Close()
			f, err := fed.New(g, w0, silosW, mpc.Params{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(3, uint64(tc.silos)))
			var instances int
			for q := range 60 {
				src, dst := fedroad.Vertex(rng.IntN(tc.n)), fedroad.Vertex(rng.IntN(tc.n))
				want, stats, err := sess.ShortestPath(src, dst, fedroad.QueryOptions{BatchedMPC: true})
				if err != nil {
					t.Fatal(err)
				}
				mem := transport.NewMem(tc.silos)
				routes := make([]core.PathResult, tc.silos)
				widths := make([][]int, tc.silos)
				errs := make([]error, tc.silos)
				var wg sync.WaitGroup
				for p := range tc.silos {
					wg.Add(1)
					go func() {
						defer wg.Done()
						dealer := mpc.NewDealer(tc.silos, uint64(q))
						routes[p], _, widths[p], errs[p] = partyQuery(f, mem.Conn(p), dealer, src, dst)
					}()
				}
				wg.Wait()
				for p, r := range routes {
					if errs[p] != nil {
						t.Fatalf("%d→%d: party %d: %v", src, dst, p, errs[p])
					}
					if r.Found != want.Found || !slices.Equal(r.Path, want.Path) || !slices.Equal(r.Partial, want.Partials) {
						t.Fatalf("%d→%d: party %d answered %v %v %v, the session %v %v %v",
							src, dst, p, r.Found, r.Path, r.Partial, want.Found, want.Path, want.Partials)
					}
					if !slices.Equal(widths[p], widths[0]) {
						t.Fatalf("%d→%d: party %d ran instances %v, party 0 %v", src, dst, p, widths[p], widths[0])
					}
				}
				var compares int64
				for _, k := range widths[0] {
					compares += int64(k)
				}
				ms := mem.Stats()
				if ms.Bytes != stats.SAC.Bytes || ms.Messages != stats.SAC.Messages ||
					compares != stats.SAC.Compares || int64(len(widths[0]))*mpc.RoundsPerCompare != stats.SAC.Rounds {
					t.Fatalf("%d→%d: the parties sent %d B in %d messages over %d instances of %d comparisons, the session counted %+v",
						src, dst, ms.Bytes, ms.Messages, len(widths[0]), compares, stats.SAC)
				}
				instances += len(widths[0])
			}
			if instances == 0 {
				t.Fatal("no route ran a Fed-SAC instance")
			}
			t.Logf("%d instances over 60 routes", instances)
		})
	}
}
