// Package scenario is the oracle and the race driver of the repository's
// concurrency tests, written once for every front door a query comes through:
// the facade, a Session, a QueryCache, serve.Pipeline, HTTP and the
// cross-process mesh, whose chaos driver (internal/soak) checks every answer
// of its silo processes with History.Check.
//
// A History records the joint weights of every traffic version from the
// writer's own shadow of the silo weights — never read back from the
// federation — and Check holds an answer to plaintext Dijkstra at the version
// it echoes. Run races a Row: per-worker fronts against one writer goroutine,
// the only code that changes the traffic version, and optional derivers
// (BuildIndex, CustomizeIndex) that keep the version.
//
// The package imports only the standard library and internal/graph, so the
// root package's in-package tests can import it.
package scenario

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Update is one silo's new travel time for one arc. Its fields are those of
// fedroad.TrafficUpdate, so each converts to the other.
type Update struct {
	Silo     int
	Arc      graph.Arc
	TravelMs int64
}

// Batch draws n updates from rng, each as a silo below silos, an arc below
// arcs and a travel time in [lo, hi), in that order.
func Batch(rng *rand.Rand, n, silos, arcs int, lo, hi int64) []Update {
	ups := make([]Update, n)
	for i := range ups {
		ups[i] = Update{rng.IntN(silos), graph.Arc(rng.IntN(arcs)), lo + rng.Int64N(hi-lo)}
	}
	return ups
}

// History is the joint weights of every traffic version the writer
// published. It is not safe for concurrent use: the writer applies while
// fronts run, and answers are checked once they have stopped.
type History struct {
	g       *graph.Graph
	version func() uint64
	shadow  []graph.Weights
	joint   map[uint64]graph.Weights
	dist    map[query]int64 // Dijkstra's distances, memoized for repeated answers
}

type query struct {
	version  uint64
	src, dst graph.Vertex
}

// NewHistory starts a history at the current version, whose silo weights are
// silos. version reads the federation's traffic version.
func NewHistory(g *graph.Graph, silos []graph.Weights, version func() uint64) *History {
	h := &History{g: g, version: version, joint: make(map[uint64]graph.Weights), dist: make(map[query]int64)}
	for _, s := range silos {
		h.shadow = append(h.shadow, slices.Clone(s))
	}
	h.joint[version()] = h.sum()
	return h
}

// Apply folds a batch the federation accepted into the shadow and records
// the version it published, read right after. A version recorded before must
// come back with the same weights, as a restore republishes the version it
// saved; anything else is an error.
func (h *History) Apply(ups []Update) error {
	for _, u := range ups {
		h.shadow[u.Silo][u.Arc] = u.TravelMs
	}
	joint, ver := h.sum(), h.version()
	if old, ok := h.joint[ver]; ok && !slices.Equal(old, joint) {
		return fmt.Errorf("scenario: version %d published again with other weights", ver)
	}
	h.joint[ver] = joint
	return nil
}

func (h *History) sum() graph.Weights {
	joint := make(graph.Weights, h.g.NumArcs())
	for _, s := range h.shadow {
		for a, w := range s {
			joint[a] += w
		}
	}
	return joint
}

// Weight is silo p's weight of arc a in the shadow.
func (h *History) Weight(p int, a graph.Arc) int64 { return h.shadow[p][a] }

// Answer is one route a front returned, at the version it echoed.
type Answer struct {
	Version  uint64
	Src, Dst graph.Vertex
	Found    bool
	Path     []graph.Vertex
	Partials []int64 // per-silo costs of the path; nil when the front reports none
}

// Check holds a to plaintext Dijkstra at the version it echoes: the version
// was recorded, Found agrees with Dijkstra's reachability, the path is an
// s→d path of the graph whose joint cost is Dijkstra's distance, and so is
// the sum of the partials when the front reports them.
func (h *History) Check(a Answer) error {
	joint, ok := h.joint[a.Version]
	if !ok {
		return fmt.Errorf("%d→%d echoes version %d, which was never recorded", a.Src, a.Dst, a.Version)
	}
	want, ok := h.dist[query{a.Version, a.Src, a.Dst}]
	if !ok {
		want, _ = graph.DijkstraTo(h.g, joint, a.Src, a.Dst)
		h.dist[query{a.Version, a.Src, a.Dst}] = want
	}
	if found := want < graph.InfCost; a.Found != found {
		return fmt.Errorf("%d→%d at version %d: found %v, Dijkstra %d", a.Src, a.Dst, a.Version, a.Found, want)
	}
	if !a.Found {
		return nil
	}
	if len(a.Path) == 0 || a.Path[0] != a.Src || a.Path[len(a.Path)-1] != a.Dst {
		return fmt.Errorf("%d→%d at version %d: path %v has other ends", a.Src, a.Dst, a.Version, a.Path)
	}
	cost, err := graph.PathCost(h.g, joint, a.Path)
	if err != nil || cost != want {
		return fmt.Errorf("%d→%d at version %d: path costs %d (%v), Dijkstra %d", a.Src, a.Dst, a.Version, cost, err, want)
	}
	if a.Partials != nil {
		var sum int64
		for _, p := range a.Partials {
			sum += p
		}
		if sum != want {
			return fmt.Errorf("%d→%d at version %d: partials sum to %d, Dijkstra %d", a.Src, a.Dst, a.Version, sum, want)
		}
	}
	return nil
}

// Done ends the loop of the step that returns it without failing the row.
var Done = errors.New("scenario: done")

// Front is one step of a front: query i, answered at the version it echoes.
type Front func(i int) (Answer, error)

// Row is one race. Every loop runs its first step; after that it runs until
// its count is reached, a step returns Done, or the row stops. The row stops
// when For has passed or, with For zero, when every loop with a count has
// ended; and at the first error.
type Row struct {
	Fronts  int
	Front   func(w int) Front // front w's steps
	Queries int               // answers per front
	// Retry names the errors a front retries after a short pause, as a
	// client honouring Retry-After does.
	Retry func(error) bool

	// Writer applies op i's batch and returns it, or nil for an op that
	// republishes the current version. It alone changes the version.
	Writer func(i int) ([]Update, error)
	Ops    int
	// Epoch is how many answers the writer waits for after each op; its
	// fronts must answer until the row stops.
	Epoch int

	Derivers    []func(i int) error // index derivations; they keep the version
	Derivations int                 // per deriver

	For time.Duration
}

// Counts is what a row did.
type Counts struct {
	Answers, Ops, Derivations int
}

// Run races r, recording every writer op in h, and then checks every answer.
// It fails on any front, writer or deriver error the row does not retry, on
// an answer Check rejects, when no answer was checked and when a writer or
// deriver never completed a step.
func Run(h *History, r Row) (Counts, error) {
	if r.For == 0 && r.Queries == 0 && r.Ops == 0 && r.Derivations == 0 {
		return Counts{}, errors.New("scenario: the row has neither a time nor a count")
	}
	var (
		stop                  = make(chan struct{})
		halt, errOnce         sync.Once
		firstErr              error
		answered, ops, derivs atomic.Int64
		all, counted          sync.WaitGroup
		answers               = make([][]Answer, r.Fronts)
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// spawn runs one loop on a goroutine of its own, counting its steps in
	// done.
	spawn := func(name string, n int, done *atomic.Int64, step func(int) error) {
		all.Add(1)
		if n > 0 {
			counted.Add(1)
		}
		go func() {
			defer all.Done()
			if n > 0 {
				defer counted.Done()
			}
			for i := 0; (n == 0 || i < n) && (i == 0 || !stopped()); i++ {
				if err := step(i); err != nil {
					if !errors.Is(err, Done) {
						errOnce.Do(func() { firstErr = fmt.Errorf("%s, step %d: %w", name, i, err) })
						halt.Do(func() { close(stop) })
					}
					return
				}
				done.Add(1)
			}
		}()
	}

	for w := range r.Fronts {
		front := r.Front(w)
		spawn(fmt.Sprintf("front %d", w), r.Queries, &answered, func(i int) error {
			a, err := front(i)
			for ; err != nil && r.Retry != nil && r.Retry(err); a, err = front(i) {
				if stopped() {
					return Done
				}
				time.Sleep(200 * time.Microsecond)
			}
			if err == nil {
				answers[w] = append(answers[w], a)
			}
			return err
		})
	}
	if r.Writer != nil {
		spawn("writer", r.Ops, &ops, func(i int) error {
			ups, err := r.Writer(i)
			if err == nil {
				err = h.Apply(ups)
			}
			for epoch := answered.Load() + int64(r.Epoch); err == nil && answered.Load() < epoch && !stopped(); {
				time.Sleep(time.Millisecond)
			}
			return err
		})
	}
	for d, derive := range r.Derivers {
		spawn(fmt.Sprintf("deriver %d", d), r.Derivations, &derivs, derive)
	}

	if r.For > 0 {
		select {
		case <-time.After(r.For):
		case <-stop:
		}
	} else {
		counted.Wait()
	}
	halt.Do(func() { close(stop) })
	all.Wait()
	c := Counts{Ops: int(ops.Load()), Derivations: int(derivs.Load())}
	if firstErr != nil {
		return c, firstErr
	}
	for w, as := range answers {
		for _, a := range as {
			if err := h.Check(a); err != nil {
				return c, fmt.Errorf("front %d: %w", w, err)
			}
			c.Answers++
		}
	}
	switch {
	case c.Answers == 0:
		return c, errors.New("scenario: the fronts answered nothing")
	case r.Writer != nil && c.Ops == 0:
		return c, errors.New("scenario: no writer op ran")
	case len(r.Derivers) > 0 && c.Derivations == 0:
		return c, errors.New("scenario: no derivation ran")
	}
	return c, nil
}
