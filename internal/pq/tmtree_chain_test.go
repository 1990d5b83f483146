package pq

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// dijkstraStep is one search step on a TM-tree: the champion is known from
// Peek, Stage runs beside Pop, and the commit follows — the order in which
// the search engines drive the queue. It fails the test unless Peek names
// a minimum of the model multiset, which it then updates.
func dijkstraStep(t *testing.T, q *TMTree[int], model map[int]int, batch []int, what string) {
	t.Helper()
	top, ok := q.Peek()
	if !ok {
		t.Fatalf("%s: Peek on a queue of %d", what, q.Len())
	}
	for v, n := range model {
		if n > 0 && v < top {
			t.Fatalf("%s: Peek %d, but %d is queued", what, top, v)
		}
	}
	if model[top] == 0 {
		t.Fatalf("%s: Peek %d, which is not queued", what, top)
	}
	commit := q.Stage(batch)
	if got, _ := q.Pop(); got != top {
		t.Fatalf("%s: Pop %d after Peek %d", what, got, top)
	}
	commit()
	model[top]--
	for _, v := range batch {
		model[v]++
	}
}

// TestTMTreeMergeRepairsStaleChain: at α = 2 this sequence merges away a
// root that sat right of the merged tree's slot, so a surviving root moves
// from left of it to right of the insertion point. Its chain entry must be
// recomputed too: left stale, it names a leaf of the new tree, and the
// 10th Peek returned 197498, which the 9th step had popped.
func TestTMTreeMergeRepairsStaleChain(t *testing.T) {
	q := NewTMTree[int](intLess, 2)
	q.Push(0)
	model := map[int]int{0: 1}
	for i, batch := range [][]int{
		{92039, 40710, 91509, 167733},
		{149841, 109881},
		{214737, 132669},
		{197498, 304795},
		nil, nil, nil,
		{354549, 379813},
		{266855, 362645},
	} {
		dijkstraStep(t, q, model, batch, fmt.Sprintf("step %d", i+1))
	}
	dijkstraStep(t, q, model, nil, "step 10")
}

// checkChain fails the test unless every chain entry is the winner of one
// of roots[j:] and no root winner there beats it: chain[0] is what Peek
// returns, and the others are what the next pops and merges build on.
func checkChain(t *testing.T, q *TMTree[int], alpha, seq, step int) {
	t.Helper()
	for j, w := range q.chain {
		found := false
		for _, r := range q.roots[j:] {
			found = found || r.winner == w
			if r.winner.item < w.item {
				t.Fatalf("alpha %d sequence %d step %d: chain[%d] = %d, but root winner %d follows",
					alpha, seq, step, j, w.item, r.winner.item)
			}
		}
		if !found {
			t.Fatalf("alpha %d sequence %d step %d: chain[%d] = %d is the winner of no root at or after %d",
				alpha, seq, step, j, w.item, j)
		}
	}
}

// TestTMTreeChainHoldsUnderRandomOps: random bursts of pops and of batch
// pushes, up to α² and α²+1 items, so that merges reach across several
// roots; after every operation the winner chain must summarise the roots.
func TestTMTreeChainHoldsUnderRandomOps(t *testing.T) {
	for _, alpha := range []int{2, 3, 4, 8} {
		rng := rand.New(rand.NewPCG(uint64(alpha), 77))
		for seq := 0; seq < 500; seq++ {
			q := NewTMTree[int](intLess, alpha)
			for step := 0; step < 60; step++ {
				if rng.IntN(2) == 0 {
					for pops := 1 + rng.IntN(alpha*alpha); pops > 0; pops-- {
						q.Pop()
					}
				} else {
					batch := make([]int, 1+rng.IntN(alpha*alpha+1))
					for i := range batch {
						batch[i] = rng.IntN(1000)
					}
					q.PushBatch(batch)
				}
				checkChain(t, q, alpha, seq, step)
			}
		}
	}
}
