package scenario

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestCheckerReportsViolations: each case is a wrong answer or a vacuous row
// the oracle must reject, beside a right answer it must accept — so neither a
// Check that accepts everything nor a driver that checks nothing passes.
func TestCheckerReportsViolations(t *testing.T) {
	g, w := graph.GenerateGrid(5, 5, 1)
	silos := []graph.Weights{w, slices.Clone(w)}
	silos[1][0] += 700
	var ver uint64
	history := func() *History { return NewHistory(g, silos, func() uint64 { return ver }) }
	h := history()

	src, dst := graph.Vertex(0), graph.Vertex(24)
	joint := h.joint[0]
	_, path := graph.DijkstraTo(g, joint, src, dst)
	partials := make([]int64, len(silos))
	for p, s := range silos {
		partials[p], _ = graph.PathCost(g, s, path)
	}
	good := Answer{Version: 0, Src: src, Dst: dst, Found: true, Path: path, Partials: partials}
	if err := h.Check(good); err != nil {
		t.Fatalf("a right answer was rejected: %v", err)
	}
	if _, err := Run(h, Row{Fronts: 2, Queries: 3, Front: answering(good)}); err != nil {
		t.Fatalf("a right row was rejected: %v", err)
	}

	used := g.FindArc(path[1], path[2])
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"a recorded weight perturbed on the path", func() error {
			perturbed := history()
			perturbed.joint[0][used] += 1 << 20
			return perturbed.Check(good)
		}},
		{"a version never recorded", func() error {
			a := good
			a.Version = 7
			return h.Check(a)
		}},
		{"a path that skips an arc", func() error {
			a := good
			a.Path = slices.Delete(slices.Clone(path), 1, 2)
			return h.Check(a)
		}},
		{"partials that disagree with the path", func() error {
			a := good
			a.Partials = []int64{partials[0] + 1, partials[1]}
			return h.Check(a)
		}},
		{"not found where Dijkstra finds a path", func() error {
			return h.Check(Answer{Version: 0, Src: src, Dst: dst})
		}},
		{"a version republished with other weights", func() error {
			return history().Apply([]Update{{Silo: 1, Arc: used, TravelMs: 5}})
		}},
		{"a wrong answer inside a row", func() error {
			a := good
			a.Version = 7
			_, err := Run(h, Row{Fronts: 2, Queries: 3, Front: answering(a)})
			return err
		}},
		{"a row whose fronts answer nothing", func() error {
			_, err := Run(h, Row{Fronts: 2, Queries: 3, Front: func(int) Front {
				return func(int) (Answer, error) { return Answer{}, Done }
			}})
			return err
		}},
		{"a row whose writer never ran", func() error {
			_, err := Run(h, Row{Fronts: 1, Queries: 1, Front: answering(good),
				Writer: func(int) ([]Update, error) { return nil, Done }})
			return err
		}},
		{"a front error", func() error {
			_, err := Run(h, Row{Fronts: 1, Queries: 1, Front: func(int) Front {
				return func(int) (Answer, error) { return Answer{}, errors.New("refused") }
			}})
			return err
		}},
	} {
		if tc.run() == nil {
			t.Errorf("%s: not reported", tc.name)
		}
	}
}

// answering is a front that gives a every time.
func answering(a Answer) func(int) Front {
	return func(int) Front { return func(int) (Answer, error) { return a, nil } }
}
