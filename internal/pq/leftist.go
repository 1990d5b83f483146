package pq

// Leftist implements a leftist heap [Crane 1972], the paper's "L-heap"
// baseline: batch insertion first builds a sub-heap bottom-up in O(n)
// comparisons, then merges it into the global heap in O(log |Q|).
type Leftist[T any] struct {
	less   LessFunc[T]
	root   *lnode[T]
	size   int
	counts Counts
	// phase routes merge comparisons to the right counter while a pop or
	// build is in progress.
	phase *int64
}

type lnode[T any] struct {
	item        T
	left, right *lnode[T]
	s           int32 // null-path length
}

// NewLeftist creates an empty leftist heap.
func NewLeftist[T any](less LessFunc[T]) *Leftist[T] {
	l := &Leftist[T]{less: less}
	l.phase = &l.counts.Merge
	return l
}

func npl[T any](n *lnode[T]) int32 {
	if n == nil {
		return 0
	}
	return n.s
}

// merge combines two leftist heaps; each recursion level costs one root
// comparison, charged to the current phase counter.
func (l *Leftist[T]) merge(a, b *lnode[T]) *lnode[T] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	*l.phase++
	if l.less(b.item, a.item) {
		a, b = b, a
	}
	a.right = l.merge(a.right, b)
	if npl(a.left) < npl(a.right) {
		a.left, a.right = a.right, a.left
	}
	a.s = npl(a.right) + 1
	return a
}

// Push inserts one item.
func (l *Leftist[T]) Push(item T) {
	l.counts.Pushes++
	l.phase = &l.counts.Merge
	l.root = l.merge(l.root, &lnode[T]{item: item, s: 1})
	l.size++
}

// PushBatch builds a sub-heap from the batch by pairwise merging (O(n)
// comparisons, Build phase) and merges it into the global heap (Merge
// phase).
func (l *Leftist[T]) PushBatch(items []T) {
	if len(items) == 0 {
		return
	}
	l.counts.Pushes += int64(len(items))
	if len(items) == 1 {
		l.phase = &l.counts.Merge
		l.root = l.merge(l.root, &lnode[T]{item: items[0], s: 1})
		l.size++
		return
	}
	// Bottom-up build: round-robin pairwise merges, O(n) total comparisons.
	queue := make([]*lnode[T], len(items))
	for i, it := range items {
		queue[i] = &lnode[T]{item: it, s: 1}
	}
	l.phase = &l.counts.Build
	for len(queue) > 1 {
		var next []*lnode[T]
		for i := 0; i+1 < len(queue); i += 2 {
			next = append(next, l.merge(queue[i], queue[i+1]))
		}
		if len(queue)%2 == 1 {
			next = append(next, queue[len(queue)-1])
		}
		queue = next
	}
	l.phase = &l.counts.Merge
	l.root = l.merge(l.root, queue[0])
	l.size += len(items)
}

// Stage defers the whole push to commit: the sub-heap build shares the
// phase counter with Pop, so it cannot run beside it.
func (l *Leftist[T]) Stage(items []T) (commit func()) {
	return func() { l.PushBatch(items) }
}

// Peek returns the minimum without removing it; no comparison.
func (l *Leftist[T]) Peek() (T, bool) {
	if l.root == nil {
		var zero T
		return zero, false
	}
	return l.root.item, true
}

// Pop removes the minimum; the children merge is charged to the Pop phase.
func (l *Leftist[T]) Pop() (T, bool) {
	var zero T
	if l.root == nil {
		return zero, false
	}
	top := l.root.item
	l.phase = &l.counts.Pop
	l.root = l.merge(l.root.left, l.root.right)
	l.phase = &l.counts.Merge
	l.size--
	return top, true
}

// Len reports the number of items.
func (l *Leftist[T]) Len() int { return l.size }

// Counts reports comparison usage.
func (l *Leftist[T]) Counts() Counts { return l.counts }
