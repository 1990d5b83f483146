// Package expr is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VIII) — Fig. 1 (traffic data volume),
// Table I (datasets), Fig. 7/8 (query time and communication vs hops),
// Fig. 9 (silo scalability), Table II (index construction & update),
// Fig. 10 (cost ∝ Fed-SAC), Fig. 11 (lower-bound accuracy) and Fig. 12
// (priority-queue comparisons).
//
// Each experiment has a Run method returning typed rows plus a Print method
// producing the table the paper reports. The Config lets tests run the same
// code on tiny instances while cmd/fedbench runs the full scale.
package expr

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
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

// Harness caches per-dataset environments across experiments.
type Harness struct {
	cfg  Config
	envs map[string]*Env
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

func specFor(name string) graph.DatasetSpec {
	for _, s := range graph.Datasets() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("expr: unknown dataset %q", name))
}

// Env returns (building on first use) the environment for a dataset at the
// configured silo count.
func (h *Harness) Env(name string) (*Env, error) {
	return h.envFor(name, h.cfg.Silos, "")
}

// envFor builds an environment keyed by dataset, silo count and an arbitrary
// tag. An experiment that mutates the environment takes its own tag: Joint
// and LM describe the silo weights at construction, nothing refreshes them,
// and landmark bounds over changed weights prune to wrong routes (see
// lb.Landmarks).
func (h *Harness) envFor(name string, silos int, tag string) (*Env, error) {
	key := fmt.Sprintf("%s/%d/%s", name, silos, tag)
	if env, ok := h.envs[key]; ok {
		return env, nil
	}
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
	h.envs[key] = env
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
	res := graph.Dijkstra(g, w0, s)
	depth := make([]int, g.NumVertices())
	order := make([]graph.Vertex, g.NumVertices())
	for v := range order {
		order[v] = graph.Vertex(v)
		depth[v] = 1 << 30
	}
	// Vertices in ascending distance: parents resolved before children.
	sortByDist(order, res.Dist)
	depth[s] = 0
	for _, v := range order {
		if v == s || res.Dist[v] >= graph.InfCost {
			continue
		}
		depth[v] = depth[res.Parent[v]] + 1
	}
	return depth
}

func sortByDist(order []graph.Vertex, dist []int64) {
	// Simple sort; n log n on vertex count.
	quickSortVerts(order, dist, 0, len(order)-1)
}

func quickSortVerts(order []graph.Vertex, dist []int64, lo, hi int) {
	for lo < hi {
		p := dist[order[(lo+hi)/2]]
		i, j := lo, hi
		for i <= j {
			for dist[order[i]] < p {
				i++
			}
			for dist[order[j]] > p {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortVerts(order, dist, lo, j)
			lo = i
		} else {
			quickSortVerts(order, dist, i, hi)
			hi = j
		}
	}
}

// Method is one of the comparative baselines of §VIII-B.
type Method struct {
	Name    string
	Options func(env *Env) core.Options
}

// Methods returns the paper's six baselines in its order.
func Methods() []Method {
	return []Method{
		{"Naive-Dijk", func(env *Env) core.Options {
			return core.Options{}
		}},
		{"+Fed-Shortcut", func(env *Env) core.Options {
			return core.Options{Index: env.Index}
		}},
		{"+Fed-ALT-Max", func(env *Env) core.Options {
			return core.Options{Index: env.Index, Estimator: lb.FedALTMax, Landmarks: env.LM}
		}},
		{"+Fed-AMPS", func(env *Env) core.Options {
			return core.Options{Index: env.Index, Estimator: lb.FedAMPS}
		}},
		{"+TM-tree", func(env *Env) core.Options {
			return core.Options{Index: env.Index, Estimator: lb.FedAMPS, Queue: "tm-tree"}
		}},
		{"Naive-Dijk+TM-tree", func(env *Env) core.Options {
			return core.Options{Queue: "tm-tree"}
		}},
	}
}

// tab returns a tabwriter on the configured output.
func (h *Harness) tab() *tabwriter.Writer {
	return tabwriter.NewWriter(h.cfg.Out, 2, 4, 2, ' ', 0)
}

func (h *Harness) printf(format string, args ...interface{}) {
	fmt.Fprintf(h.cfg.Out, format, args...)
}

// fmtDuration renders durations compactly for tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtBytes renders byte counts compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
