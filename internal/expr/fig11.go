package expr

import (
	"math/rand/v2"
	"strconv"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// Fig11Row is one estimator's mean relative error per congestion level.
type Fig11Row struct {
	Method string
	Errors map[string]float64 // congestion level name -> mean relative error
}

// Fig11Result backs Fig. 11 (accuracy of federated lower-bound estimators).
type Fig11Result struct {
	Dataset string
	Levels  []string
	Rows    []Fig11Row
}

// LandmarkSizes are the landmark-set sizes swept by Fig. 11.
var LandmarkSizes = []int{16, 32, 64}

// RunFig11 measures the mean relative estimation error of every lower-bound
// method across congestion levels on the first dataset (the paper uses CAL):
// static ALT with the largest landmark set, Fed-ALT and Fed-ALT-Max at each
// landmark-set size, and Fed-AMPS.
func (h *Harness) RunFig11(numQueries int) (*Fig11Result, error) {
	if numQueries == 0 {
		numQueries = 100
	}
	ds := h.cfg.Datasets[0]
	g, w0, _ := h.generate(ds)
	sizes := append([]int(nil), LandmarkSizes...)
	for i, s := range sizes {
		if s > g.NumVertices()/4 {
			sizes[i] = g.NumVertices() / 4
		}
	}
	maxSize := sizes[len(sizes)-1]

	res := &Fig11Result{Dataset: ds}
	rowIdx := map[string]int{}
	addErr := func(method, level string, err float64) {
		i, ok := rowIdx[method]
		if !ok {
			i = len(res.Rows)
			rowIdx[method] = i
			res.Rows = append(res.Rows, Fig11Row{Method: method, Errors: map[string]float64{}})
		}
		res.Rows[i].Errors[level] = err
	}

	for _, lvl := range traffic.Levels() {
		res.Levels = append(res.Levels, lvl.Name)
		sets := traffic.SiloWeights(w0, h.cfg.Silos, lvl, h.cfg.Seed+101)
		f, err := fed.New(g, w0, sets, mpc.Params{Mode: h.cfg.Mode, Seed: h.cfg.Seed})
		if err != nil {
			return nil, err
		}
		joint := f.JointWeights()

		lms := make(map[int]*lb.Landmarks)
		for _, size := range sizes {
			lms[size] = lb.PrecomputeLandmarks(f, lb.SelectLandmarks(g, w0, size, h.cfg.Seed), 0)
		}

		rng := rand.New(rand.NewPCG(h.cfg.Seed+103, 7))
		type qp struct {
			s, t graph.Vertex
			dist int64
		}
		var queries []qp
		for len(queries) < numQueries {
			s := graph.Vertex(rng.IntN(g.NumVertices()))
			t := graph.Vertex(rng.IntN(g.NumVertices()))
			if s == t {
				continue
			}
			d, _ := graph.DijkstraTo(g, joint, s, t)
			if d > 0 && d < graph.InfCost {
				queries = append(queries, qp{s, t, d})
			}
		}

		meanErr := func(bound func(s, t graph.Vertex) int64) float64 {
			var sum float64
			for _, q := range queries {
				b := bound(q.s, q.t)
				if b < 0 {
					b = 0
				}
				sum += float64(q.dist-b) / float64(q.dist)
			}
			return sum / float64(len(queries))
		}
		sumOf := func(p fed.Partial) int64 {
			var s int64
			for _, v := range p {
				s += v
			}
			return s
		}

		// Static ALT (largest landmark set) — the non-federated baseline.
		addErr("ALT-"+strconv.Itoa(maxSize), lvl.Name, meanErr(func(s, t graph.Vertex) int64 {
			return lms[maxSize].StaticALTBound(s, t, f.P())
		}))
		// Fed-ALT and Fed-ALT-Max at each landmark-set size.
		for _, size := range sizes {
			lm := lms[size]
			for _, kind := range []lb.Kind{lb.FedALT, lb.FedALTMax} {
				name := string(kind) + "-" + strconv.Itoa(size)
				addErr(name, lvl.Name, meanErr(func(s, t graph.Vertex) int64 {
					sac := f.NewSAC()
					fw, _, err := lb.NewPair(kind, f, lm, sac, s, t)
					if err != nil {
						return 0
					}
					return sumOf(fw.Potential(s))
				}))
			}
		}
		// Fed-AMPS.
		addErr(string(lb.FedAMPS), lvl.Name, meanErr(func(s, t graph.Vertex) int64 {
			fw, _, err := lb.NewPair(lb.FedAMPS, f, nil, nil, s, t)
			if err != nil {
				return 0
			}
			return sumOf(fw.Potential(s))
		}))
	}
	return res, nil
}

// PrintFig11 renders the estimator-accuracy table.
func (h *Harness) PrintFig11(res *Fig11Result) {
	cols := []column[Fig11Row]{{"method", func(r Fig11Row) string { return r.Method }}}
	for _, l := range res.Levels {
		cols = append(cols, column[Fig11Row]{l,
			func(r Fig11Row) string { return strconv.FormatFloat(r.Errors[l]*100, 'f', 2, 64) + "%" }})
	}
	table(h, "\n== Fig. 11: mean relative error of lower-bound estimation ("+res.Dataset+") ==", res.Rows, cols...)
}
