// Package soak races the serving pipeline against everything that moves
// under it: concurrent queries through serve.Pipeline — the same code
// fedserver's handlers call — racing traffic updates racing index rebuilds,
// the contention a deployment sees, compressed into seconds. Every answer is
// replayed against plaintext Dijkstra at the traffic version it echoed (the
// staleness oracle), and the admission counters are checked for exact
// accounting. (mesh.go is the cross-process chaos harness behind cmd/fedmesh.)
package soak

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	fedroad "repro"
	"repro/internal/graph"
	"repro/internal/serve"
)

// The soak's fixed shape: a small OD pool makes cache pressure real, and an
// in-system limit below the worker count makes overload real — the
// accounting invariant is vacuous if nothing ever sheds.
const (
	soakSilos    = 3
	soakSeed     = 1
	soakPairs    = 12
	soakCacheCap = 1024
)

// Config sizes the soak.
type Config struct {
	Vertices int           // road-network size
	Duration time.Duration // how long everything races everything
	Workers  int           // concurrent query workers; the pipeline admits Workers/2+1
}

// Report is what a soak run observed.
type Report struct {
	Queries        int64 // answers served (hits, waiters and computed)
	TrafficBatches int64
	Rebuilds       int64

	// Staleness oracle: every answer replayed against plaintext Dijkstra at
	// the traffic version it echoed.
	OracleChecks     int64
	OracleViolations int64

	// Admission accounting. Only flight leaders reach the gate, so Admitted +
	// Shed must equal LeaderAttempts and the depth must return to zero.
	LeaderAttempts int64
	Admitted       int64
	Shed           int64
	AccountingOK   bool

	CacheHits      int64
	CacheMisses    int64
	CacheCoalesced int64
}

// observation is one served answer awaiting its oracle replay.
type observation struct {
	src, dst fedroad.Vertex
	route    fedroad.Route
	ver      uint64
}

// Run executes the soak and returns the report. It is deterministic in
// workload shape (topology, update stream, OD pairs) but not in interleaving
// — that is the point.
func Run(cfg Config) (*Report, error) {
	g, w0 := fedroad.GenerateRoadNetwork(cfg.Vertices, soakSeed)
	silos := fedroad.SimulateCongestion(w0, soakSilos, fedroad.Moderate, soakSeed+1)
	f, err := fedroad.New(g, w0, silos, fedroad.Config{Seed: soakSeed + 2})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.BuildIndex(); err != nil {
		return nil, err
	}
	pipe := serve.New(f, cfg.Workers/2, 1, soakCacheCap)

	// Shadow staleness oracle: traffic version → plaintext joint weights.
	// The federation never exposes the private silo weights, so the soak
	// tracks its own copy — the initial congestion sets plus every update the
	// (single) updater applies — and records the summed joint per version.
	shadow := make([]fedroad.Weights, len(silos))
	for p, set := range silos {
		shadow[p] = append(fedroad.Weights(nil), set...)
	}
	oracle := map[uint64]fedroad.Weights{f.TrafficVersion(): jointOf(shadow, g.NumArcs())}

	pairs := make([][2]fedroad.Vertex, soakPairs)
	prng := rand.New(rand.NewPCG(soakSeed+3, 0))
	for i := range pairs {
		pairs[i] = [2]fedroad.Vertex{
			fedroad.Vertex(prng.IntN(g.NumVertices())),
			fedroad.Vertex(prng.IntN(g.NumVertices())),
		}
	}

	var (
		stop     atomic.Bool
		leaders  atomic.Int64
		batches  atomic.Int64
		rebuilds atomic.Int64
		errCh    = make(chan error, cfg.Workers+2)
		obs      = make([][]observation, cfg.Workers)
		wg       sync.WaitGroup
	)

	// Query workers. A shed request retries after a beat, exactly like a
	// client honoring Retry-After.
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(soakSeed+4, uint64(w)))
			for !stop.Load() {
				p := pairs[rng.IntN(len(pairs))]
				route, meta, qerr := pipe.Route(p[0], p[1])
				if meta.Outcome == fedroad.CacheMiss {
					leaders.Add(1)
				}
				if errors.Is(qerr, serve.ErrShed) {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if qerr != nil {
					errCh <- fmt.Errorf("soak query: %w", qerr)
					return
				}
				obs[w] = append(obs[w], observation{p[0], p[1], route, meta.Version})
			}
		}()
	}

	// Updater: small traffic batches, each recorded in the oracle (which only
	// this goroutine touches until the workers are done).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(soakSeed+5, 0))
		for !stop.Load() {
			ups := make([]fedroad.TrafficUpdate, 1+rng.IntN(3))
			for i := range ups {
				ups[i] = fedroad.TrafficUpdate{
					Silo:     rng.IntN(soakSilos),
					Arc:      fedroad.Arc(rng.IntN(g.NumArcs())),
					TravelMs: int64(1 + rng.IntN(120000)),
				}
			}
			if _, uerr := f.ApplyTraffic(ups); uerr != nil {
				errCh <- fmt.Errorf("soak traffic: %w", uerr)
				return
			}
			for _, u := range ups {
				shadow[u.Silo][u.Arc] = u.TravelMs
			}
			oracle[f.TrafficVersion()] = jointOf(shadow, g.NumArcs())
			batches.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Rebuilder: full index rebuilds racing everything. The updater waits for
	// each one, and queries keep answering at the published version.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := f.BuildIndex(); err != nil {
				errCh <- fmt.Errorf("soak rebuild: %w", err)
				return
			}
			rebuilds.Add(1)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}

	rep := &Report{
		TrafficBatches: batches.Load(),
		Rebuilds:       rebuilds.Load(),
		LeaderAttempts: leaders.Load(),
	}

	// Replay every answer against the oracle at its echoed version.
	for _, list := range obs {
		rep.Queries += int64(len(list))
		for _, o := range list {
			joint, ok := oracle[o.ver]
			if !ok {
				rep.OracleViolations++ // echoed a version that never existed
				continue
			}
			rep.OracleChecks++
			want, _ := graph.DijkstraTo(g, joint, o.src, o.dst)
			switch {
			case want >= graph.InfCost:
				if o.route.Found {
					rep.OracleViolations++
				}
			case !o.route.Found, fedroad.JointCost(o.route) != want:
				rep.OracleViolations++
			}
		}
	}

	st := pipe.Stats()
	rep.Admitted = st.Admission.Admitted
	rep.Shed = st.Admission.Shed
	rep.AccountingOK = rep.Admitted+rep.Shed == rep.LeaderAttempts && st.Admission.Depth == 0
	rep.CacheHits = int64(st.Cache.Hits)
	rep.CacheMisses = int64(st.Cache.Misses)
	rep.CacheCoalesced = int64(st.Cache.Coalesced)
	return rep, nil
}

// jointOf sums the shadow silo weights into the plaintext joint vector the
// oracle compares against.
func jointOf(shadow []fedroad.Weights, numArcs int) fedroad.Weights {
	joint := make(fedroad.Weights, numArcs)
	for _, w := range shadow {
		for a := range joint {
			joint[a] += w[a]
		}
	}
	return joint
}
