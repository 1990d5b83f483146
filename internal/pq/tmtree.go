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
// Once set, Stage and StageJoin compare through f alone and never through
// the LessFunc, so a caller may bind the two to different comparison
// channels and run a stage beside Pop.
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
// Stage(items) is StageJoin(items, nil, nil).
func (q *TMTree[T]) Stage(items []T) (commit func()) { return q.StageJoin(items, nil, nil) }

// StageJoin is Stage for a batch that the caller is still deciding by
// comparisons of its own. The first comparison call carries the caller's
// pairs pre and then the first level of ready's tournament; join, if
// non-nil, gets pre's bits and returns the items that join the tournament
// after that level, behind its contenders. From then on each call pairs the
// contenders in order, so the tree holds ready and the joiners, built with
// one comparison fewer than it has items.
func (q *TMTree[T]) StageJoin(ready []T, pre [][2]T, join func(bits []bool) []T) (commit func()) {
	level, bits := q.playLevel(leaves(ready), pre)
	if join != nil {
		level = append(level, leaves(join(bits))...)
	}
	for len(level) > 1 {
		level, _ = q.playLevel(level, nil)
	}
	if len(level) == 0 {
		return func() {}
	}
	t := level[0]
	return func() {
		q.counts.Pushes += int64(t.size)
		q.counts.Build += int64(t.size - 1)
		q.merge(t)
		q.size += t.size
	}
}

// leaves wraps items as one-leaf tournament trees.
func leaves[T any](items []T) []*tnode[T] {
	level := make([]*tnode[T], len(items))
	for i, it := range items {
		leaf := &tnode[T]{item: it, size: 1}
		leaf.winner = leaf
		level[i] = leaf
	}
	return level
}

// playLevel plays one tournament level: neighbouring contenders meet in
// pairs and an odd one out moves up unplayed. Its comparisons are one
// batched call when a batch comparator is set, led by the caller's pairs pre,
// whose bits it returns beside the next level; no pairs, no call.
func (q *TMTree[T]) playLevel(level []*tnode[T], pre [][2]T) (next []*tnode[T], preBits []bool) {
	matches := len(level) / 2
	pairs := make([][2]T, len(pre), len(pre)+matches)
	copy(pairs, pre)
	for i := 0; i < matches; i++ {
		pairs = append(pairs, [2]T{level[2*i+1].winner.item, level[2*i].winner.item})
	}
	var bits []bool
	switch {
	case len(pairs) == 0:
	case q.batchLess != nil:
		bits = q.batchLess(pairs)
	default:
		bits = make([]bool, len(pairs))
		for i, p := range pairs {
			bits[i] = q.less(p[0], p[1])
		}
	}
	next = make([]*tnode[T], 0, (len(level)+1)/2)
	for i := 0; i < matches; i++ {
		a, b := level[2*i], level[2*i+1]
		winner := a.winner
		if bits[len(pre)+i] {
			winner = b.winner
		}
		next = append(next, &tnode[T]{left: a, right: b, winner: winner, size: a.size + b.size})
	}
	if len(level)%2 == 1 {
		next = append(next, level[len(level)-1])
	}
	return next, bits[:len(pre):len(pre)]
}

// merge is Steps 2–3 of a batch push: slot the staged tree t into the global
// list and repair the winner chain, charging the Merge phase.
func (q *TMTree[T]) merge(t *tnode[T]) {
	// Step 2 — scale-balanced merging: repeatedly merge with the
	// closest-sized similar sub-tree, then slot into the size-descending
	// list. Removing roots[best] changes the successor of roots[best-1] and
	// takes leaves out of every chain entry left of best: hi is the
	// rightmost entry that lost leaves, lo the leftmost root whose successor
	// changed (-1 and len(roots): none yet).
	hi, lo := -1, len(q.roots)
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
		if hi >= best {
			hi--
		}
		hi, lo = max(hi, best-1), min(lo, best-1)
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
	if hi >= pos {
		hi++
	}
	lo = min(lo, pos-1)

	// Step 3 — update the winner chain leftward from the insertion point,
	// stopping once a competition leaves the winner unchanged. The merged
	// tree may slot in left of a root it absorbed, and a root that sat
	// between the two then lies right of pos with a chain entry that may
	// name a leaf of the new tree: the update starts at hi in that case. It
	// stops early only where every entry left of it still has its old
	// successor, at lo+1 or further left.
	q.updateChain(max(hi, pos), lo+1)
}

// updateChain recomputes chain[from], chain[from-1], ..., charging the
// current phase, with early termination at an index below through when a
// chain value does not change.
func (q *TMTree[T]) updateChain(from, through int) {
	for j := from; j >= 0; j-- {
		var nw *tnode[T]
		if j == len(q.roots)-1 {
			nw = q.roots[j].winner // rightmost: no competition needed
		} else {
			nw = q.winnerLeaf(q.roots[j].winner, q.chain[j+1])
		}
		old := q.chain[j]
		q.chain[j] = nw
		if j < through && nw == old {
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
		q.updateChain(idx, idx)
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
