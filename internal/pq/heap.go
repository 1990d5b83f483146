package pq

// Heap is a classical binary min-heap. Items are inserted one at a time with
// sift-up; following the paper's Fig. 12 accounting, push comparisons are
// counted in the Merge phase ("considering every push in the Heap as a
// merge") and pop comparisons in the Pop phase.
type Heap[T any] struct {
	less   LessFunc[T]
	items  []T
	counts Counts
}

// NewHeap creates an empty binary heap.
func NewHeap[T any](less LessFunc[T]) *Heap[T] {
	return &Heap[T]{less: less}
}

// Push inserts one item with sift-up.
func (h *Heap[T]) Push(item T) {
	h.counts.Pushes++
	h.items = append(h.items, item)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		h.counts.Merge++
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// PushBatch inserts items one by one (the heap has no batch mechanism).
func (h *Heap[T]) PushBatch(items []T) {
	for _, it := range items {
		h.Push(it)
	}
}

// Stage defers the whole push to commit: the heap has no build step.
func (h *Heap[T]) Stage(items []T) (commit func()) {
	return func() { h.PushBatch(items) }
}

// Peek returns the minimum without removing it; no comparison.
func (h *Heap[T]) Peek() (T, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	return h.items[0], true
}

// Pop removes the minimum with sift-down.
func (h *Heap[T]) Pop() (T, bool) {
	var zero T
	if len(h.items) == 0 {
		return zero, false
	}
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = zero
	h.items = h.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n {
			h.counts.Pop++
			if h.less(h.items[r], h.items[l]) {
				child = r
			}
		}
		h.counts.Pop++
		if !h.less(h.items[child], h.items[i]) {
			break
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
	return top, true
}

// Len reports the number of items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Counts reports comparison usage.
func (h *Heap[T]) Counts() Counts { return h.counts }
