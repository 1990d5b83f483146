package pq

// TMTree is the Tournament Merge tree of §VI: a priority queue dedicated to
// minimizing (secure) comparisons in road-network search.
//
//   - Batch pushing builds a tournament (winner) tree over the n pushed items
//     with the information-theoretic minimum of n−1 comparisons, then merges
//     it into the global structure with one comparison per merge.
//   - Scale-balanced merging maintains a list of sub-tournament-trees of
//     geometrically decreasing sizes (factor alpha); a new sub-tree merges
//     only with similarly sized sub-trees, bounding the overall height by
//     O(log |Q|) and hence the pop cost.
//   - A winner chain across the sub-trees tracks the global champion; chain
//     updates stop as soon as a competition leaves the winner unchanged.
type TMTree[T any] struct {
	less      LessFunc[T]
	alpha     int
	roots     []*tnode[T] // sub-tournament trees, size-descending
	chain     []*tnode[T] // chain[i] = winning leaf among roots[i:]
	size      int
	counts    Counts
	phase     *int64
	batchLess BatchLessFunc[T]
}

type tnode[T any] struct {
	item   T // valid at leaves
	left   *tnode[T]
	right  *tnode[T]
	winner *tnode[T] // winning leaf of the subtree (self for leaves)
	size   int
}

// NewTMTree creates an empty TM-tree with balance factor alpha (the paper
// uses alpha = 4). alpha must be > 1.
func NewTMTree[T any](less LessFunc[T], alpha int) *TMTree[T] {
	if alpha <= 1 {
		panic("pq: TM-tree balance factor must exceed 1")
	}
	t := &TMTree[T]{less: less, alpha: alpha}
	t.phase = &t.counts.Merge
	return t
}

// BatchLessFunc compares many independent pairs at once: result[i] reports
// whether pairs[i][0] has strictly higher priority than pairs[i][1]. Backed
// by Fed-SAC, this executes the whole set in one MPC protocol instance.
type BatchLessFunc[T any] func(pairs [][2]T) []bool

// SetBatchLess enables batched comparisons for the tournament build: the
// comparisons of one tournament level are independent, so a push batch of n
// items costs its n−1 comparisons in only ⌈log₂ n⌉ protocol round-trips.
// Once set, Stage compares through f alone and never through the LessFunc,
// so a caller may bind the two to different comparison channels and run
// Stage beside Pop.
func (q *TMTree[T]) SetBatchLess(f BatchLessFunc[T]) { q.batchLess = f }

// winnerLeaf decides the higher-priority of two leaves, charging one
// comparison to the current phase.
func (q *TMTree[T]) winnerLeaf(a, b *tnode[T]) *tnode[T] {
	*q.phase++
	if q.less(b.item, a.item) {
		return b
	}
	return a
}

// mergeNodes joins two tournament trees under a new winner node with exactly
// one comparison.
func (q *TMTree[T]) mergeNodes(a, b *tnode[T]) *tnode[T] {
	return &tnode[T]{
		left:   a,
		right:  b,
		winner: q.winnerLeaf(a.winner, b.winner),
		size:   a.size + b.size,
	}
}

// Push inserts a single item (a batch of one).
func (q *TMTree[T]) Push(item T) {
	q.PushBatch([]T{item})
}

// PushBatch inserts a group of items: tournament build (Build phase,
// len(items)−1 comparisons), then scale-balanced merging into the global
// list (Merge phase).
func (q *TMTree[T]) PushBatch(items []T) { q.Stage(items)() }

// Stage is Step 1 of a batch push: it builds a sub-tournament-tree over
// items with the minimum len(items)−1 comparisons, each level's independent
// competitions in one batched call when a batch comparator is set. It reads
// and writes nothing of the global structure (roots, chain, counters), so it
// may run concurrently with Pop. commit performs Steps 2–3 and the counting;
// call it exactly once, and not concurrently with any other queue operation.
func (q *TMTree[T]) Stage(items []T) (commit func()) {
	if len(items) == 0 {
		return func() {}
	}
	level := make([]*tnode[T], len(items))
	for i, it := range items {
		leaf := &tnode[T]{item: it, size: 1}
		leaf.winner = leaf
		level[i] = leaf
	}
	for len(level) > 1 {
		matches := len(level) / 2
		var res []bool // nil: decide each match through the LessFunc
		if q.batchLess != nil {
			pairs := make([][2]T, matches)
			for i := range pairs {
				pairs[i] = [2]T{level[2*i+1].winner.item, level[2*i].winner.item}
			}
			res = q.batchLess(pairs)
		}
		next := make([]*tnode[T], 0, (len(level)+1)/2)
		for i := 0; i < matches; i++ {
			a, b := level[2*i], level[2*i+1]
			var second bool
			if res != nil {
				second = res[i]
			} else {
				second = q.less(b.winner.item, a.winner.item)
			}
			winner := a.winner
			if second {
				winner = b.winner
			}
			next = append(next, &tnode[T]{left: a, right: b, winner: winner, size: a.size + b.size})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return func() {
		q.counts.Pushes += int64(len(items))
		q.counts.Build += int64(len(items) - 1)
		q.merge(level[0])
		q.size += len(items)
	}
}

// merge is Steps 2–3 of a batch push: slot the staged tree t into the global
// list and repair the winner chain, charging the Merge phase.
func (q *TMTree[T]) merge(t *tnode[T]) {
	// Step 2 — scale-balanced merging: repeatedly merge with the
	// closest-sized similar sub-tree, then slot into the size-descending
	// list.
	for {
		best, bestDiff := -1, 0
		for i, r := range q.roots {
			if t.size <= q.alpha*r.size && r.size <= q.alpha*t.size {
				diff := t.size - r.size
				if diff < 0 {
					diff = -diff
				}
				if best == -1 || diff < bestDiff {
					best, bestDiff = i, diff
				}
			}
		}
		if best == -1 {
			break
		}
		t = q.mergeNodes(t, q.roots[best])
		q.roots = append(q.roots[:best], q.roots[best+1:]...)
		q.chain = append(q.chain[:best], q.chain[best+1:]...)
	}
	pos := len(q.roots)
	for i, r := range q.roots {
		if r.size < t.size {
			pos = i
			break
		}
	}
	q.roots = append(q.roots, nil)
	copy(q.roots[pos+1:], q.roots[pos:])
	q.roots[pos] = t
	q.chain = append(q.chain, nil)
	copy(q.chain[pos+1:], q.chain[pos:])
	q.chain[pos] = nil

	// Step 3 — update the winner chain leftward from the insertion point,
	// stopping once a competition leaves the winner unchanged.
	q.updateChainFrom(pos)
}

// updateChainFrom recomputes chain[i], chain[i-1], ..., charging the current
// phase, with early termination when a chain value does not change.
func (q *TMTree[T]) updateChainFrom(i int) {
	for j := i; j >= 0; j-- {
		var nw *tnode[T]
		if j == len(q.roots)-1 {
			nw = q.roots[j].winner // rightmost: no competition needed
		} else {
			nw = q.winnerLeaf(q.roots[j].winner, q.chain[j+1])
		}
		old := q.chain[j]
		q.chain[j] = nw
		if j != i && nw == old {
			return
		}
	}
}

// removeWinner deletes the winning leaf from a tournament tree, replaying
// the competitions along the leaf-to-root path (one comparison per level).
// It returns the remaining tree, or nil when the tree had one leaf.
func (q *TMTree[T]) removeWinner(n *tnode[T]) *tnode[T] {
	if n.left == nil { // leaf
		return nil
	}
	child, sibling := n.left, n.right
	if n.right.winner == n.winner {
		child, sibling = n.right, n.left
	}
	rest := q.removeWinner(child)
	if rest == nil {
		return sibling // the sibling subtree is promoted, no comparison
	}
	n.left, n.right = rest, sibling
	n.size--
	n.winner = q.winnerLeaf(rest.winner, sibling.winner)
	return n
}

// Peek returns the global champion without removing it; no comparison.
func (q *TMTree[T]) Peek() (T, bool) {
	if q.size == 0 {
		var zero T
		return zero, false
	}
	return q.chain[0].item, true
}

// Pop removes the global champion: locate its sub-tree (pointer equality,
// no comparisons), replay the path inside that sub-tree, then update the
// winner chain.
func (q *TMTree[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	champion := q.chain[0]
	idx := -1
	for i, r := range q.roots {
		if r.winner == champion {
			idx = i
			break
		}
	}
	if idx == -1 {
		panic("pq: TM-tree winner chain corrupted")
	}
	q.phase = &q.counts.Pop
	rest := q.removeWinner(q.roots[idx])
	if rest == nil {
		q.roots = append(q.roots[:idx], q.roots[idx+1:]...)
		q.chain = append(q.chain[:idx], q.chain[idx+1:]...)
		idx--
	} else {
		q.roots[idx] = rest
	}
	// After removing the leftmost root (idx < 0) the shifted chain is already
	// correct: chain[j] still summarizes roots[j:]. Otherwise recompute from
	// the affected position leftward.
	if idx >= 0 && len(q.roots) > 0 {
		q.updateChainFrom(idx)
	}
	q.phase = &q.counts.Merge
	q.size--
	return champion.item, true
}

// Len reports the number of items.
func (q *TMTree[T]) Len() int { return q.size }

// Counts reports comparison usage.
func (q *TMTree[T]) Counts() Counts { return q.counts }

// NumSubTrees reports how many sub-tournament-trees the global list holds
// (bounded by O(log_alpha |Q|)); exposed for the balance tests.
func (q *TMTree[T]) NumSubTrees() int { return len(q.roots) }

// Height reports the maximum node depth over all sub-trees plus the chain
// length — the bound on pop comparisons. Exposed for the balance tests.
func (q *TMTree[T]) Height() int {
	max := 0
	for _, r := range q.roots {
		if h := treeHeight(r); h > max {
			max = h
		}
	}
	return max + len(q.roots)
}

func treeHeight[T any](n *tnode[T]) int {
	if n == nil || n.left == nil {
		return 0
	}
	lh, rh := treeHeight(n.left), treeHeight(n.right)
	if lh > rh {
		return lh + 1
	}
	return rh + 1
}
