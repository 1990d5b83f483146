// Package expr is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VIII) — Fig. 1 (traffic data volume),
// Table I (datasets), Fig. 7/8 (query time and communication vs hops),
// Fig. 9 (silo scalability), Table II (index construction & update),
// Fig. 10 (cost ∝ Fed-SAC), Fig. 11 (lower-bound accuracy) and Fig. 12
// (priority-queue comparisons).
//
// Every experiment that runs federated queries is a list of named variants
// (engine options over an environment) run by one sweep over hop-grouped
// query sets, and every table goes through one writer. Fig. 1, Fig. 11 and
// Tables I–II, which run no federated query, keep Run methods returning
// typed rows and Print methods. The Config lets tests run the same code on
// tiny instances while cmd/fedbench runs the full scale.
package expr

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/ch"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// Config scales the harness. Zero values select the paper's defaults.
type Config struct {
	Datasets        []string         // nil = CAL-S, BJ-S, FLA-S
	Silos           int              // default 3 (paper's default federation)
	Level           traffic.Level    // default Moderate
	QueriesPerGroup int              // default 20
	NumGroups       int              // default 5
	Landmarks       int              // default 32
	Seed            uint64           // default 1
	Mode            mpc.Mode         // default ModeIdeal (exact cost accounting)
	Net             mpc.NetworkModel // §VIII-B cost model; printed times add its prediction (default DefaultLAN)
	MaxVertices     int              // 0 = full scale; tests pass a small cap
	External        *ExternalDataset // pre-loaded network injected under its own name
	Out             io.Writer        // default os.Stdout
}

// ExternalDataset injects a pre-loaded road network — typically a DIMACS
// import loaded from a binary snapshot — into the harness under the given
// name, so imported networks bench alongside the synthetic datasets. The
// graph is used as-is: MaxVertices does not apply to it.
type ExternalDataset struct {
	Name string
	G    *graph.Graph
	W0   graph.Weights
}

func (c Config) withDefaults() Config {
	if c.Datasets == nil {
		c.Datasets = []string{"CAL-S", "BJ-S", "FLA-S"}
	}
	if c.Silos == 0 {
		c.Silos = 3
	}
	if c.Level.Name == "" {
		c.Level = traffic.Moderate
	}
	if c.QueriesPerGroup == 0 {
		c.QueriesPerGroup = 20
	}
	if c.NumGroups == 0 {
		c.NumGroups = 5
	}
	if c.Landmarks == 0 {
		c.Landmarks = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Net.Bandwidth == 0 {
		c.Net = mpc.DefaultLAN()
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	return c
}

// Harness caches each dataset's default environment (Env), and the
// comparative sweep that Fig. 7, 8 and 10 share, across experiments.
type Harness struct {
	cfg  Config
	envs map[string]*Env
	comp []comparison
}

// New creates a harness.
func New(cfg Config) *Harness {
	return &Harness{cfg: cfg.withDefaults(), envs: make(map[string]*Env)}
}

// Config returns the effective (defaulted) configuration.
func (h *Harness) Config() Config { return h.cfg }

// Env is a fully materialized evaluation environment for one dataset: the
// federation, the WJRN ground truth, the federated shortcut index and the
// landmark matrices.
type Env struct {
	Spec      graph.DatasetSpec
	G         *graph.Graph
	W0        graph.Weights
	Fed       *fed.Federation
	Joint     graph.Weights
	Index     *ch.Index
	LM        *lb.Landmarks
	BuildTime time.Duration
}

// generate materializes a dataset topology, honoring the MaxVertices cap.
func (h *Harness) generate(name string) (*graph.Graph, graph.Weights, graph.DatasetSpec) {
	if ext := h.cfg.External; ext != nil && ext.Name == name {
		spec := graph.DatasetSpec{
			Name:      name,
			Region:    "external",
			Vertices:  ext.G.NumVertices(),
			Generator: "external",
			Seed:      1,
		}
		return ext.G, ext.W0, spec
	}
	spec := specFor(name)
	if h.cfg.MaxVertices > 0 && spec.Vertices > h.cfg.MaxVertices {
		spec.Vertices = h.cfg.MaxVertices
	}
	var g *graph.Graph
	var w0 graph.Weights
	switch spec.Generator {
	case "grid":
		side := int(math.Round(math.Sqrt(float64(spec.Vertices))))
		g, w0 = graph.GenerateGrid(side, side, spec.Seed)
	default:
		g, w0 = graph.GenerateRoadLike(spec.Vertices, spec.Seed)
	}
	return g, w0, spec
}

// beijing returns BJ-S when it is configured, else the first dataset: the
// paper runs Fig. 1 and Fig. 12 on Beijing.
func (h *Harness) beijing() string {
	for _, d := range h.cfg.Datasets {
		if d == "BJ-S" {
			return d
		}
	}
	return h.cfg.Datasets[0]
}

func specFor(name string) graph.DatasetSpec {
	for _, s := range graph.Datasets() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("expr: unknown dataset %q", name))
}

// Env returns (building on first use) the environment for a dataset at the
// configured silo count. It is kept for the whole run.
func (h *Harness) Env(name string) (*Env, error) {
	if env, ok := h.envs[name]; ok {
		return env, nil
	}
	env, err := h.buildEnv(name, h.cfg.Silos)
	if err != nil {
		return nil, err
	}
	h.envs[name] = env
	return env, nil
}

// buildEnv builds an environment for a dataset at a silo count, which the
// caller drops when done with it. An experiment that needs another silo
// count, or that mutates the environment, builds its own: Joint and LM
// describe the silo weights at construction, nothing refreshes them, and
// landmark bounds over changed weights prune to wrong routes (see
// lb.Landmarks).
func (h *Harness) buildEnv(name string, silos int) (*Env, error) {
	g, w0, spec := h.generate(name)
	sets := traffic.SiloWeights(w0, silos, h.cfg.Level, h.cfg.Seed+spec.Seed)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: h.cfg.Mode, Seed: h.cfg.Seed})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	idx, err := ch.Build(f)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Spec:      spec,
		G:         g,
		W0:        w0,
		Fed:       f,
		Joint:     f.JointWeights(),
		Index:     idx,
		BuildTime: time.Since(start),
	}
	k := h.cfg.Landmarks
	if k > g.NumVertices()/2 {
		k = g.NumVertices() / 2
	}
	env.LM = lb.PrecomputeLandmarks(f, lb.SelectLandmarks(g, w0, k, h.cfg.Seed), 0)
	return env, nil
}

// Query is one SPSP query with its hop count on the static graph G0.
type Query struct {
	S, T graph.Vertex
	Hops int
}

// HopGroup is a set of queries whose static shortest paths have hop counts
// within [Lo, Hi) — the paper's query-scale grouping.
type HopGroup struct {
	Lo, Hi  int
	Queries []Query
}

// Label renders the group's hop interval.
func (g HopGroup) Label() string { return fmt.Sprintf("%d-%d", g.Lo, g.Hi) }

// QueryGroups samples queries grouped by hop count, as §VIII-A describes:
// random vertex pairs divided into NumGroups intervals of the number of road
// segments on the static shortest path. Interval boundaries derive from the
// dataset's hop diameter so the same code covers every scale.
func (h *Harness) QueryGroups(env *Env) []HopGroup {
	rng := rand.New(rand.NewPCG(h.cfg.Seed*77, env.Spec.Seed))
	n := env.G.NumVertices()

	// Estimate the hop diameter from a few random sources.
	maxDepth := 0
	for i := 0; i < 4; i++ {
		s := graph.Vertex(rng.IntN(n))
		depth := hopDepths(env.G, env.W0, s)
		for _, d := range depth {
			if d > maxDepth && d < 1<<30 {
				maxDepth = d
			}
		}
	}
	hi := maxDepth * 8 / 10
	if hi < h.cfg.NumGroups {
		hi = h.cfg.NumGroups
	}
	step := hi / h.cfg.NumGroups
	if step < 1 {
		step = 1
	}
	groups := make([]HopGroup, h.cfg.NumGroups)
	for i := range groups {
		groups[i] = HopGroup{Lo: i * step, Hi: (i + 1) * step}
	}

	need := h.cfg.QueriesPerGroup
	for attempts := 0; attempts < 200; attempts++ {
		full := true
		for _, g := range groups {
			if len(g.Queries) < need {
				full = false
			}
		}
		if full {
			break
		}
		s := graph.Vertex(rng.IntN(n))
		depth := hopDepths(env.G, env.W0, s)
		// Bucket targets per group and draw one per unfilled group.
		for gi := range groups {
			if len(groups[gi].Queries) >= need {
				continue
			}
			var cands []graph.Vertex
			for v, d := range depth {
				if graph.Vertex(v) != s && d >= groups[gi].Lo && d < groups[gi].Hi {
					cands = append(cands, graph.Vertex(v))
				}
			}
			if len(cands) > 0 {
				t := cands[rng.IntN(len(cands))]
				groups[gi].Queries = append(groups[gi].Queries, Query{S: s, T: t, Hops: depth[t]})
			}
		}
	}
	return groups
}

// hopDepths returns per-vertex hop counts of static shortest paths from s.
func hopDepths(g *graph.Graph, w0 graph.Weights, s graph.Vertex) []int {
	depth := make([]int, g.NumVertices())
	for v := range depth {
		depth[v] = 1 << 30
	}
	depth[s] = 0
	// Settle order: a vertex's parent comes, and is resolved, before it.
	x := graph.NewSearch(g, w0, s, false)
	x.Next() // s itself
	for v, ok := x.Next(); ok; v, ok = x.Next() {
		depth[v] = depth[x.Parent(v)] + 1
	}
	return depth
}
