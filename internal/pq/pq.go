// Package pq provides the priority queues compared in the paper's §VI and
// Fig. 12: a binary Heap (the classical baseline), a Leftist heap (batch
// insertion baseline), and the Tournament Merge tree (TM-tree) — the paper's
// comparison-optimized structure.
//
// All queues work over an opaque item type and a caller-supplied LessFunc;
// in federated search the LessFunc runs a Fed-SAC secure comparison, which is
// the dominant cost. Every queue therefore counts its comparisons, broken
// down by the phases Fig. 12 reports: building a sub-queue from a push batch,
// merging it into the global queue, and popping.
package pq

// LessFunc reports whether a has strictly higher priority (smaller cost)
// than b. It may execute an MPC protocol underneath.
type LessFunc[T any] func(a, b T) bool

// Counts breaks down comparison usage by operation phase, matching Fig. 12:
// Build (constructing a sub-queue from a batch), Merge (inserting the
// sub-queue into the global queue; for the plain heap, every push counts as
// a merge, as in the paper), and Pop. Pushes counts items pushed — the
// paper's lower bound line for the total comparisons.
type Counts struct {
	Build  int64
	Merge  int64
	Pop    int64
	Pushes int64
}

// Total returns all comparisons.
func (c Counts) Total() int64 { return c.Build + c.Merge + c.Pop }

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Build += other.Build
	c.Merge += other.Merge
	c.Pop += other.Pop
	c.Pushes += other.Pushes
}

// Queue is a min-priority queue with batch insertion.
type Queue[T any] interface {
	// Push inserts a single item.
	Push(item T)
	// PushBatch inserts a group of items (a vertex expansion's neighbors).
	PushBatch(items []T)
	// Stage splits PushBatch in two: Stage does whatever part of the push is
	// independent of the queue's current contents (the TM-tree's tournament
	// build; nothing for the heaps) and may run concurrently with Pop; commit
	// inserts the staged items and must be called exactly once, alone.
	// PushBatch(items) is Stage(items)().
	Stage(items []T) (commit func())
	// Peek returns the item the next Pop will remove, without a comparison.
	Peek() (item T, ok bool)
	// Pop removes and returns the highest-priority item. ok is false when
	// the queue is empty.
	Pop() (item T, ok bool)
	// Len reports the number of items in the queue.
	Len() int
	// Counts reports the comparison usage so far.
	Counts() Counts
}

// Kind names a queue implementation, for harness configuration.
type Kind string

const (
	KindHeap    Kind = "heap"
	KindLeftist Kind = "l-heap"
	KindTMTree  Kind = "tm-tree"
)

// New constructs a queue of the given kind. alpha is the TM-tree balance
// factor (ignored by the other kinds); the paper's experiments use alpha=4.
func New[T any](kind Kind, less LessFunc[T], alpha int) Queue[T] {
	switch kind {
	case KindHeap:
		return NewHeap(less)
	case KindLeftist:
		return NewLeftist(less)
	case KindTMTree:
		return NewTMTree(less, alpha)
	default:
		panic("pq: unknown queue kind " + string(kind))
	}
}
