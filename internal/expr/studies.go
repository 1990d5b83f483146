package expr

import (
	"strconv"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/lb"
	"repro/internal/mpc"
	"repro/internal/pq"
	"repro/internal/traffic"
)

// A study runs a variant list over one dataset's whole query mix, every hop
// group's queries, and prints a line per variant: Fig. 12 and the
// ablations.
type study struct {
	title    string
	variants []variant
	columns  []column[row]
}

// printStudies builds each study over dataset ds's environment, runs it
// over the environment's whole query mix and prints its table. It returns
// the last study's rows, one per variant.
func (h *Harness) printStudies(ds string, studies ...func(*Env) (study, error)) ([]row, error) {
	env, err := h.Env(ds)
	if err != nil {
		return nil, err
	}
	var mix []Query
	for _, g := range h.QueryGroups(env) {
		mix = append(mix, g.Queries...)
	}
	var rows []row
	for _, mk := range studies {
		s, err := mk(env)
		if err != nil {
			return nil, err
		}
		swept, err := h.sweep(s.variants, mix)
		if err != nil {
			return nil, err
		}
		rows = make([]row, len(swept))
		for i, rs := range swept {
			rows[i] = rs[0]
		}
		table(h, s.title, rows, s.columns...)
	}
	return rows, nil
}

// Fig12 prints the Fed-SAC comparisons that queue building, merging and
// popping consume under Fed-Shortcut + Fed-AMPS with each priority-queue
// structure (paper Fig. 12; the paper uses BJ).
func (h *Harness) Fig12() error {
	rows, err := h.printStudies(h.beijing(), h.queueStudy)
	if err == nil {
		h.printf("#push operations (comparison lower bound): %d\n", rows[len(rows)-1].queue.Pushes)
	}
	return err
}

func (h *Harness) queueStudy(env *Env) (study, error) {
	s := study{
		title:   "\n== Fig. 12: Fed-SAC comparisons by priority-queue structure (" + env.Spec.Name + ") ==",
		columns: append([]column[row]{{"queue", byName}}, queueColumns("total")...),
	}
	for _, kind := range []pq.Kind{pq.KindHeap, pq.KindLeftist, pq.KindTMTree} {
		s.variants = append(s.variants, variant{string(kind), env, core.Options{Index: env.Index, Estimator: lb.FedAMPS, Queue: kind}})
	}
	return s, nil
}

// Ablate prints the ablations beyond the paper's figures, each over the
// first dataset's query mix.
func (h *Harness) Ablate() error {
	_, err := h.printStudies(h.cfg.Datasets[0], h.alphaStudy, h.landmarkStudy, h.estimatorStudy, h.batchingStudy, h.indexStudy)
	return err
}

// alphaStudy sweeps the TM-tree balance factor α (the paper fixes α = 4;
// this ablation justifies the choice): smaller α merges more aggressively
// (flatter list, cheaper pops, pricier merges), larger α the reverse.
func (h *Harness) alphaStudy(env *Env) (study, error) {
	s := study{
		title:   "\n== Ablation: TM-tree balance factor α (paper uses α=4) ==",
		columns: append(append([]column[row]{{"alpha", byName}}, queueColumns("total cmps")...), column[row]{"avg query time", avgTime}),
	}
	for _, alpha := range []int{2, 4, 8, 16} {
		s.variants = append(s.variants, variant{strconv.Itoa(alpha), env, core.Options{Index: env.Index, Estimator: lb.FedAMPS, Queue: pq.KindTMTree, Alpha: alpha}})
	}
	return s, nil
}

// landmarkStudy sweeps the landmark count for Fed-ALT-Max end-to-end: more
// landmarks tighten the bound (fewer iterations) but grow the pre-computed
// matrices — the space/efficiency trade-off of §V.
func (h *Harness) landmarkStudy(env *Env) (study, error) {
	n := env.G.NumVertices()
	s := study{
		title: "\n== Ablation: landmark count for Fed-ALT-Max (space vs pruning) ==",
		columns: []column[row]{{"|L|", byName}, {"avg #Fed-SAC", avgSACs}, {"avg settled", avgSettled}, {"avg query time", avgTime},
			{"Φ per silo", func(r row) string { return strconv.Itoa(len(r.opt.Landmarks.L)*n*8/1024) + "KB" }}},
	}
	for _, k := range []int{8, 16, 32, 64} {
		k = min(k, n/2)
		lm := lb.PrecomputeLandmarks(env.Fed, lb.SelectLandmarks(env.G, env.W0, k, h.cfg.Seed))
		s.variants = append(s.variants, variant{strconv.Itoa(k), env, core.Options{Index: env.Index, Estimator: lb.FedALTMax, Landmarks: lm, Queue: pq.KindTMTree}})
	}
	return s, nil
}

// estimatorStudy measures end-to-end query cost per lower-bound method over
// the shortcut index, completing Fig. 11's accuracy story with the
// communication side of the trade-off: Fed-ALT's per-estimation secure
// comparisons wipe out its accuracy advantage, which is exactly why the
// paper proposes Fed-ALT-Max and Fed-AMPS.
func (h *Harness) estimatorStudy(env *Env) (study, error) {
	s := study{
		title:   "\n== Ablation: end-to-end query cost per lower-bound estimator ==",
		columns: []column[row]{{"estimator", byName}, {"avg #Fed-SAC", avgSACs}, {"avg settled", avgSettled}, {"avg bytes", avgBytes}, {"avg query time", avgTime}},
	}
	for _, kind := range []lb.Kind{lb.None, lb.FedALT, lb.FedALTMax, lb.FedAMPS} {
		opt := core.Options{Index: env.Index, Estimator: kind, Queue: pq.KindTMTree}
		if kind == lb.FedALT || kind == lb.FedALTMax {
			opt.Landmarks = env.LM
		}
		s.variants = append(s.variants, variant{string(kind), env, opt})
	}
	return s, nil
}

// batchingStudy measures batched Fed-SAC on the full stack (an extension
// beyond the paper): independent comparisons share one protocol instance's
// rounds, a direct query-time win on latency-bound networks.
func (h *Harness) batchingStudy(env *Env) (study, error) {
	full := core.Options{Index: env.Index, Estimator: lb.FedAMPS, Queue: pq.KindTMTree}
	batched := full
	batched.BatchedMPC = true
	return study{
		title:    "\n== Extension: batched Fed-SAC for TM-tree tournament builds ==",
		variants: []variant{{"sequential Fed-SAC", env, full}, {"batched Fed-SAC", env, batched}},
		columns:  []column[row]{{"execution", byName}, {"avg #Fed-SAC", avgSACs}, {"avg MPC rounds", avgRounds}, {"avg bytes", avgBytes}, {"avg query time", avgTime}},
	}, nil
}

// indexStudy builds the federated shortcut index of env's network under
// different framework parameters — ordering heuristic and witness-search cap
// (§IV) — each over a federation of its own, and measures index size,
// construction cost and the full stack's query cost over it.
func (h *Harness) indexStudy(env *Env) (study, error) {
	caps := map[*Env]int{}
	s := study{title: "\n== Ablation: federated shortcut index construction strategies =="}
	for _, prm := range []ch.Params{
		{Ordering: ch.OrderEdgeDiff},
		{Ordering: ch.OrderDegree},
		{Ordering: ch.OrderEdgeDiff, WitnessCap: 8},
	} {
		sets := traffic.SiloWeights(env.W0, h.cfg.Silos, h.cfg.Level, h.cfg.Seed+5)
		f, err := fed.New(env.G, env.W0, sets, mpc.Params{Mode: h.cfg.Mode, Seed: h.cfg.Seed})
		if err != nil {
			return study{}, err
		}
		idx, err := ch.BuildWith(f, prm)
		if err != nil {
			return study{}, err
		}
		e := &Env{Spec: env.Spec, G: env.G, W0: env.W0, Fed: f, Joint: f.JointWeights(), Index: idx}
		caps[e] = prm.WitnessCap
		if prm.WitnessCap == 0 {
			caps[e] = ch.DefaultWitnessCap
		}
		s.variants = append(s.variants, variant{string(prm.Ordering), e, core.Options{Index: idx, Estimator: lb.FedAMPS, Queue: pq.KindTMTree}})
	}
	build := func(r row) ch.BuildStats { return r.env.Index.BuildStatistics() }
	s.columns = []column[row]{
		{"ordering", byName},
		{"witness cap", func(r row) string { return strconv.Itoa(caps[r.env]) }},
		{"shortcuts", func(r row) string { return strconv.Itoa(r.env.Index.NumShortcuts()) }},
		{"build #Fed-SAC", func(r row) string { return strconv.FormatInt(build(r).SAC.Compares, 10) }},
		{"build time", func(r row) string {
			return fmtDuration(build(r).WallTime + h.cfg.Net.Predict(build(r).SAC, r.env.Fed.P()))
		}},
		{"avg query #Fed-SAC", avgSACs},
		{"avg query time", avgTime},
	}
	return s, nil
}
