package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	fedroad "repro"
	"repro/internal/admit"
	"repro/internal/ch"
)

// workloads in the order BENCHMARK.json lists them. Every one is a closed
// loop: its callers are dispatch back-ends that wait for their answer before
// asking again.
var workloadNames = []string{"route_wire", "route_hot", "knn_mem", "refresh_grid"}

// sample is one completed op of a client.
type sample struct {
	index  int
	kind   string        // span name: route, knn, refresh, write
	end    time.Duration // completion time since the window opened
	dur    time.Duration
	failed bool   // error, timeout or shed
	err    string // first line of the failure
	write  bool   // route_hot's ApplyTraffic: not a primary op
	hit    bool   // served by the cache without running a query
	stats  fedroad.Stats
	update ch.UpdateStats // a write's in-place index update
	ans    []answer       // checked against the shadow after the window

	query time.Duration // inside Session (or, refresh, ApplyTraffic); 0 for a hit
	// traced ops only
	traced           bool
	acquire, cacheDo time.Duration
	conn             connSnap
}

// client runs ops one after another. Op i is decided by the seed and by the
// ops before it, so a seed fixes the op list. Warm-up ops have negative i.
type client struct {
	op   func(i int, traced bool) sample
	to   *traceTarget // where the ops' transport time is charged; nil untraced
	done func()
}

// pos is op i's place in a pass of n ops, for any i.
func pos(i, n int) int { return ((i % n) + n) % n }

// bench is one set-up workload, ready for its window.
type bench struct {
	world   *world
	clients []*client
	// pass is the number of consecutive ops after which a client has done
	// the same work again: every query of its universe (route_wire, knn_mem),
	// two epochs (route_hot), one cycle (refresh_grid).
	pass  int
	gate  *admit.Gate
	cache *fedroad.QueryCache
	// epochs, where set, keeps the clients' passes aligned (route_hot).
	epochs *rendezvous
	// after runs once the window has closed (refresh_grid: the state round
	// trip). Its answers are oracle-checked like any other.
	after func(r *rawRun)
}

func (b *bench) close() {
	for _, c := range b.clients {
		c.done()
	}
	b.world.close()
}

// rendezvous is a barrier the clients still running meet at, again and again.
type rendezvous struct {
	mu               sync.Mutex
	released         *sync.Cond
	parties, waiting int
	meeting          int // counts the meetings held
}

func newRendezvous() *rendezvous {
	r := &rendezvous{}
	r.released = sync.NewCond(&r.mu)
	return r
}

// wait returns once every party still running waits.
func (r *rendezvous) wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.waiting++
	if r.waiting >= r.parties {
		r.release()
		return
	}
	for m := r.meeting; m == r.meeting; {
		r.released.Wait()
	}
}

// leave is a party's last call: the others no longer wait for it.
func (r *rendezvous) leave() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parties--
	if r.waiting > 0 && r.waiting >= r.parties {
		r.release()
	}
}

func (r *rendezvous) release() {
	r.waiting = 0
	r.meeting++
	r.released.Broadcast()
}

func nClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// timeQuery fills the sample's timing and failure fields around one query.
func timeQuery(s *sample, traced bool, to *traceTarget, run func() error) {
	var before connSnap
	if traced {
		before = to.snap()
	}
	t0 := time.Now()
	err := run()
	s.query = time.Since(t0)
	if traced {
		s.conn = to.snap().sub(before)
	}
	if err != nil {
		s.failed = true
		s.err = err.Error()
	}
}

// setUp builds the named workload and runs its warm-up ops.
func setUp(name string, sz sizes, seed int64, tr *tracer) (b *bench, err error) {
	var g *fedroad.Graph
	var w0 fedroad.Weights
	switch name {
	case "route_wire", "route_hot", "knn_mem":
		g, w0 = fedroad.GenerateRoadNetwork(sz.roadN, worldSeed)
	case "refresh_grid":
		g, w0 = fedroad.GenerateGridNetwork(sz.gridRows, sz.gridCols, worldSeed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	wire := name != "knn_mem" // knn_mem: in-process transport and no index
	w, err := newWorld(g, w0, wire, wire, tr)
	if err != nil {
		return nil, err
	}
	b = &bench{world: w}
	defer func() {
		if err != nil {
			b.close()
			b = nil
		}
	}()
	f := b.world.fed
	switch name {
	case "route_wire":
		b.pass = sz.universe
		for c := 0; c < nClients(); c++ {
			b.clients = append(b.clients, walker(b, sz, seed, c, tr, "route",
				func(sess *fedroad.Session, od [2]fedroad.Vertex) (answer, fedroad.Stats, error) {
					r, st, ver, err := sess.ShortestPathAt(od[0], od[1], queryOpts)
					return routeAnswer(od[0], od[1], ver, r), st, err
				}))
		}
	case "knn_mem":
		b.pass = sz.universe
		for c := 0; c < nClients(); c++ {
			b.clients = append(b.clients, walker(b, sz, seed, c, tr, "knn",
				func(sess *fedroad.Session, od [2]fedroad.Vertex) (answer, fedroad.Stats, error) {
					rs, st, ver, err := sess.NearestNeighborsAt(od[0], sz.knnK, queryOpts)
					a := answer{knn: true, src: od[0], ver: ver, legs: make([]leg, sz.knnK)}
					for i := range min(len(rs), len(a.legs)) { // a short answer leaves legs that are not ok
						a.legs[i] = legOf(od[0], rs[i])
					}
					return a, st, err
				}))
		}
	case "route_hot":
		b.pass = 2 * sz.writeEvery // a jammed epoch and a cleared one
		b.epochs = newRendezvous()
		b.gate = admit.New(4*nClients(), nil)
		b.cache = f.NewQueryCache(sz.cacheCap)
		pairs := odUniverse(b.world.g, sz.hotPairs, 99)
		for c := 0; c < nClients(); c++ {
			b.clients = append(b.clients, hotClient(b, sz, seed, c, pairs, tr))
		}
	case "refresh_grid":
		b.pass = 1
		b.clients = []*client{refreshClient(b, sz, seed, tr)}
		b.after = func(r *rawRun) { stateRoundTrip(b, sz, seed, r) }
	}
	// Warm-up ops are untimed and unchecked, but a failure aborts the run.
	warm := sz.warmups
	if name == "refresh_grid" {
		warm = sz.refreshWarmups
	}
	var wg sync.WaitGroup
	errs := make([]error, len(b.clients))
	for ci, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < warm; i++ {
				if s := c.op(-1-i, false); s.failed {
					errs[ci] = fmt.Errorf("warm-up op failed: %s", s.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return b, errors.Join(errs...)
}

// walker is a client that asks the queries of its own fixed universe, one
// pass after another, in the order the seed decides.
func walker(b *bench, sz sizes, seed int64, c int, tr *tracer, kind string,
	ask func(*fedroad.Session, [2]fedroad.Vertex) (answer, fedroad.Stats, error)) *client {
	sess, to := tr.openSession(b.world.fed)
	universe := odUniverse(b.world.g, sz.universe, int64(c))
	order := rand.New(rand.NewSource(seed*16 + int64(c))).Perm(len(universe))
	return &client{to: to, done: sess.Close, op: func(i int, traced bool) sample {
		s := sample{kind: kind}
		od := universe[order[pos(i, len(order))]]
		timeQuery(&s, traced, to, func() error {
			a, st, err := ask(sess, od)
			s.stats, s.ans = st, []answer{a}
			return err
		})
		s.dur = s.query
		return s
	}}
}

// hotClient is one caller of the serving tier, composed as fedserver composes
// it: QueryCache in front, and inside the flight leader's closure the
// admission gate and then the session. An epoch is writeEvery ops: Zipf(1.1)
// requests over a shared universe of OD pairs, except that client 0 starts
// each epoch with a traffic write and the in-place index update, which bumps
// the traffic version and so invalidates the cache.
//
// Everything that decides how much work an epoch is repeats: every epoch of a
// client asks the same requests (--seed decides their order), the writes
// alternately jam the same few arcs and clear them again, and the clients
// start each epoch together, once the write is done. The queries computed in
// an epoch are then the distinct pairs both clients ask for, however the
// clients happen to interleave, and a pass — a jammed and a cleared epoch —
// costs the same rounds and bytes in every run.
func hotClient(b *bench, sz sizes, seed int64, c int, pairs [][2]fedroad.Vertex, tr *tracer) *client {
	f := b.world.fed
	sess, to := tr.openSession(f)
	zipf := rand.NewZipf(rand.New(rand.NewSource(worldSeed*1000+int64(c))), 1.1, 1, uint64(len(pairs)-1))
	requests := make([]int, sz.writeEvery)
	for i := range requests {
		requests[i] = int(zipf.Uint64())
	}
	// The first request is the one client 0 writes instead of: it stays in
	// place. Warm-up ops (negative i) keep the list's own order, so that
	// set-up costs the same whatever the seed.
	order := rand.New(rand.NewSource(seed*16 + int64(c))).Perm(len(requests) - 1)
	jam := trafficBatch(rand.New(rand.NewSource(worldSeed)), b.world.w0, sz.writeArcs)
	clear := make([]fedroad.TrafficUpdate, len(jam))
	for i, u := range jam {
		clear[i] = fedroad.TrafficUpdate{Silo: u.Silo, Arc: u.Arc, TravelMs: b.world.shadow.silo[u.Silo][u.Arc]}
	}
	return &client{to: to, done: sess.Close, op: func(i int, traced bool) sample {
		boundary := i >= 0 && i%sz.writeEvery == 0 // warm-up ops have negative i
		if boundary {
			b.epochs.wait() // every client has finished the epoch before
		}
		if boundary && c != 0 {
			b.epochs.wait() // client 0 has written
		}
		if boundary && c == 0 {
			defer b.epochs.wait()
			ups := jam
			if i/sz.writeEvery%2 == 1 {
				ups = clear
			}
			s := sample{kind: "write", write: true}
			t0 := time.Now()
			st, err := f.ApplyTraffic(ups)
			s.dur = time.Since(t0)
			s.update = st
			if err != nil {
				s.failed, s.err = true, err.Error()
				return s
			}
			b.world.shadow.apply(f.TrafficVersion(), ups)
			return s
		}
		s := sample{kind: "route"}
		at := pos(i, len(requests))
		if i > 0 && at > 0 {
			at = 1 + order[at-1]
		}
		od := pairs[requests[at]]
		ran := false
		t0 := time.Now()
		r, st, ver, out, err := b.cache.ShortestPath(od[0], od[1], queryOpts,
			func() (r fedroad.Route, st fedroad.Stats, ver uint64, err error) {
				ran = true
				a0 := time.Now()
				if err = b.gate.Acquire(); err != nil {
					return
				}
				defer b.gate.Release()
				if traced {
					s.acquire = time.Since(a0)
				}
				timeQuery(&s, traced, to, func() error {
					r, st, ver, err = sess.ShortestPathAt(od[0], od[1], queryOpts)
					return err
				})
				return
			})
		s.dur = time.Since(t0)
		s.cacheDo = s.dur
		if err != nil {
			s.failed, s.err = true, err.Error()
		}
		s.hit = out != fedroad.CacheMiss
		if ran {
			s.stats = st // a hit replays the computing call's counters: count them once
		}
		s.ans = []answer{routeAnswer(od[0], od[1], ver, r)}
		return s
	}}
}

// refreshClient runs index-lifecycle cycles: a traffic batch whose refresh is
// a whole customization pass over the skeleton (the op), then a few routes at
// the new version, which are checked but not timed as ops.
func refreshClient(b *bench, sz sizes, seed int64, tr *tracer) *client {
	f := b.world.fed
	sess := f.Session()
	rng := rand.New(rand.NewSource(seed * 16))
	var to *traceTarget
	if tr != nil {
		to = &tr.shared // customization forks engines of its own
	}
	return &client{to: to, done: sess.Close, op: func(i int, traced bool) sample {
		ups := trafficBatch(rng, b.world.w0, sz.refreshArcs)
		s := sample{kind: "refresh"}
		timeQuery(&s, traced, to, func() error {
			_, err := f.ApplyTraffic(ups, fedroad.RebuildIndex)
			return err
		})
		s.dur = s.query
		if s.failed {
			return s
		}
		b.world.shadow.apply(f.TrafficVersion(), ups)
		st := f.IndexStats()
		s.stats.SAC = st.SAC
		s.ans = checkedRoutes(sess, b.world.g, rng, sz.refreshQueries, &s)
		return s
	}}
}

// checkedRoutes asks n random routes and returns their answers for the
// oracle; an error fails the sample.
func checkedRoutes(sess *fedroad.Session, g *fedroad.Graph, rng *rand.Rand, n int, s *sample) []answer {
	var out []answer
	for q := 0; q < n; q++ {
		src := fedroad.Vertex(rng.Intn(g.NumVertices()))
		dst := fedroad.Vertex(rng.Intn(g.NumVertices()))
		r, _, ver, err := sess.ShortestPathAt(src, dst, queryOpts)
		if err != nil {
			s.failed, s.err = true, err.Error()
			continue
		}
		out = append(out, routeAnswer(src, dst, ver, r))
	}
	return out
}

// stateRoundTrip saves the federation's state, restores it into the same
// federation and asks checked routes of the restored index.
func stateRoundTrip(b *bench, sz sizes, seed int64, r *rawRun) {
	f := b.world.fed
	var buf bytes.Buffer
	s := sample{kind: "state", write: true}
	t0 := time.Now()
	err := f.SaveState(&buf)
	r.stateSave = time.Since(t0)
	r.stateBytes = buf.Len()
	if err == nil {
		t0 = time.Now()
		_, err = f.RestoreState(&buf)
		r.stateRestore = time.Since(t0)
	}
	if err != nil {
		s.failed, s.err = true, err.Error()
	} else {
		sess := f.Session()
		defer sess.Close()
		s.ans = checkedRoutes(sess, b.world.g, rand.New(rand.NewSource(seed*16+9)), sz.refreshQueries, &s)
	}
	r.extra = append(r.extra, s)
}

// rawRun is what one window produced, before it is reduced to metrics.
type rawRun struct {
	clients [][]sample
	extra   []sample      // ops outside the window that are still oracle-checked
	window  time.Duration // until the last client's last op completed
	cpu     time.Duration // process user+sys CPU over the window
	mem     memDelta
	peakRSS float64 // MiB, read when the window closes

	// Index statistics when the window closed: a restored index has none.
	skeleton ch.SkeletonStats
	index    ch.BuildStats

	stateSave, stateRestore time.Duration
	stateBytes              int
}

// window runs every client's closed loop until the deadline. In a traced run
// passes alternate between tracing off and on, so that both halves hold the
// same queries.
func (b *bench) window(d time.Duration, tr *tracer) *rawRun {
	r := &rawRun{clients: make([][]sample, len(b.clients))}
	runtime.GC()
	mem0 := readMem()
	cpu0 := processCPU()
	if b.epochs != nil {
		b.epochs.parties = len(b.clients)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.epochs != nil {
				defer b.epochs.leave()
			}
			for i := 0; ; i++ {
				if time.Since(start) >= d {
					return
				}
				traced := tr != nil && (i/b.pass)%2 == 1
				if tr != nil {
					c.to.on.Store(traced)
				}
				s := c.op(i, traced)
				s.index, s.traced = i, traced
				s.end = time.Since(start)
				r.clients[ci] = append(r.clients[ci], s)
			}
		}()
	}
	wg.Wait()
	r.window = time.Since(start)
	r.cpu = processCPU() - cpu0
	r.mem = readMem().sub(mem0)
	r.peakRSS = peakRSS()
	r.skeleton, r.index = b.world.fed.SkeletonStats(), b.world.fed.IndexStats()
	if b.after != nil {
		b.after(r)
	}
	return r
}

// verify checks every answer of the run against the shadow, marks the ops
// with a wrong answer as failed, and returns the number of primary and
// follow-up operations attempted, how many failed, and the first few reasons.
func (b *bench) verify(r *rawRun) (attempted, failed int, reasons []string) {
	each := func(s *sample) {
		attempted++
		if !s.failed {
			for _, a := range s.ans {
				if why := b.world.shadow.check(a); why != "" {
					s.failed, s.err = true, "oracle: "+why
					break
				}
			}
		}
		if s.failed {
			failed++
			if len(reasons) < 5 {
				reasons = append(reasons, s.kind+": "+s.err)
			}
		}
	}
	for _, ss := range r.clients {
		for i := range ss {
			each(&ss[i])
		}
	}
	for i := range r.extra {
		each(&r.extra[i])
	}
	return attempted, failed, reasons
}
