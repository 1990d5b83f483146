package pq

import (
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

var allKinds = []Kind{KindHeap, KindLeftist, KindTMTree}

func newQueue(kind Kind) Queue[int] { return New[int](kind, intLess, 4) }

func drain(q Queue[int]) []int {
	var out []int
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestPopOrderSimple(t *testing.T) {
	for _, kind := range allKinds {
		q := newQueue(kind)
		q.PushBatch([]int{5, 1, 4, 2, 3})
		got := drain(q)
		want := []int{1, 2, 3, 4, 5}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: drained %v", kind, got)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("%s: Len after drain = %d", kind, q.Len())
		}
	}
}

func TestEmptyPop(t *testing.T) {
	for _, kind := range allKinds {
		q := newQueue(kind)
		if _, ok := q.Pop(); ok {
			t.Fatalf("%s: pop on empty returned ok", kind)
		}
		q.Push(7)
		if v, ok := q.Pop(); !ok || v != 7 {
			t.Fatalf("%s: single push/pop got %d/%v", kind, v, ok)
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("%s: pop after drain returned ok", kind)
		}
	}
}

func TestPushBatchEmpty(t *testing.T) {
	for _, kind := range allKinds {
		q := newQueue(kind)
		q.PushBatch(nil)
		if q.Len() != 0 {
			t.Fatalf("%s: empty batch changed length", kind)
		}
	}
}

func TestDuplicatesAndNegatives(t *testing.T) {
	in := []int{3, -1, 3, 0, -1, 3, 2, 0}
	want := append([]int(nil), in...)
	sort.Ints(want)
	for _, kind := range allKinds {
		q := newQueue(kind)
		q.PushBatch(in)
		got := drain(q)
		if len(got) != len(want) {
			t.Fatalf("%s: drained %d items, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: drained %v, want %v", kind, got, want)
			}
		}
	}
}

func TestRandomDrainMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, kind := range allKinds {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.IntN(300)
			in := make([]int, n)
			for i := range in {
				in[i] = rng.IntN(100)
			}
			q := newQueue(kind)
			// Push in random-sized batches, as road-network search does.
			for i := 0; i < n; {
				sz := 1 + rng.IntN(12)
				if i+sz > n {
					sz = n - i
				}
				q.PushBatch(in[i : i+sz])
				i += sz
			}
			got := drain(q)
			want := append([]int(nil), in...)
			sort.Ints(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: position %d: got %d want %d", kind, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestInterleavedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for _, kind := range allKinds {
		q := newQueue(kind)
		var model []int // kept sorted
		for op := 0; op < 3000; op++ {
			if len(model) == 0 || rng.IntN(3) != 0 {
				sz := 1 + rng.IntN(8)
				batch := make([]int, sz)
				for i := range batch {
					batch[i] = rng.IntN(1000)
				}
				q.PushBatch(batch)
				model = append(model, batch...)
				sort.Ints(model)
			} else {
				v, ok := q.Pop()
				if !ok {
					t.Fatalf("%s: queue empty but model has %d items", kind, len(model))
				}
				if v != model[0] {
					t.Fatalf("%s op %d: popped %d, model says %d", kind, op, v, model[0])
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("%s: Len=%d, model=%d", kind, q.Len(), len(model))
			}
		}
	}
}

func TestQuickPropertyPopSorted(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		f := func(in []int16) bool {
			q := newQueue(kind)
			for _, v := range in {
				q.Push(int(v))
			}
			prev := int(-1 << 30)
			for {
				v, ok := q.Pop()
				if !ok {
					break
				}
				if v < prev {
					return false
				}
				prev = v
			}
			return q.Len() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestHeapCountsAccounting(t *testing.T) {
	q := NewHeap(intLess)
	q.PushBatch([]int{9, 8, 7, 6, 5})
	c := q.Counts()
	if c.Pushes != 5 {
		t.Fatalf("pushes = %d", c.Pushes)
	}
	if c.Build != 0 {
		t.Fatal("heap must not use the Build phase")
	}
	if c.Merge == 0 {
		t.Fatal("heap pushes must be charged to Merge")
	}
	drain(q)
	if q.Counts().Pop == 0 {
		t.Fatal("heap pops must be charged to Pop")
	}
}

func TestLeftistBatchBuildIsLinear(t *testing.T) {
	// Build-phase comparisons for a batch of n must be < 2n (paper: the
	// bottom-up constant "can be up to 2").
	q := NewLeftist(intLess)
	rng := rand.New(rand.NewPCG(3, 3))
	batch := make([]int, 500)
	for i := range batch {
		batch[i] = rng.IntN(1000)
	}
	q.PushBatch(batch)
	c := q.Counts()
	if c.Build >= 2*int64(len(batch)) {
		t.Fatalf("leftist build used %d comparisons for %d items", c.Build, len(batch))
	}
	if c.Build == 0 {
		t.Fatal("leftist batch build must be charged to Build")
	}
}

func TestTMTreeBuildUsesMinimumComparisons(t *testing.T) {
	q := NewTMTree(intLess, 4)
	batches := [][]int{{4, 2, 7}, {1}, {9, 9, 3, 5, 0, 2}, {8, 6}}
	wantBuild := int64(0)
	for _, b := range batches {
		q.PushBatch(b)
		wantBuild += int64(len(b) - 1)
	}
	if c := q.Counts(); c.Build != wantBuild {
		t.Fatalf("tournament build used %d comparisons, minimum is %d", c.Build, wantBuild)
	}
}

func TestTMTreeAmortizedPushNearOne(t *testing.T) {
	// The headline property of Fig. 12: with batched pushes (neighbors of an
	// expanded vertex), total push-side comparisons approach #pushes while
	// the heap needs far more.
	rng := rand.New(rand.NewPCG(4, 4))
	tm := NewTMTree(intLess, 4)
	heap := NewHeap(intLess)
	for round := 0; round < 800; round++ {
		sz := 4 + rng.IntN(8)
		batch := make([]int, sz)
		for i := range batch {
			batch[i] = rng.IntN(1 << 20)
		}
		tm.PushBatch(batch)
		heap.PushBatch(batch)
		if round%3 == 0 {
			tm.Pop()
			heap.Pop()
		}
	}
	tc, hc := tm.Counts(), heap.Counts()
	tmPerPush := float64(tc.Build+tc.Merge) / float64(tc.Pushes)
	heapPerPush := float64(hc.Build+hc.Merge) / float64(hc.Pushes)
	if tmPerPush > 1.6 {
		t.Fatalf("TM-tree amortized push comparisons = %.2f, want near 1", tmPerPush)
	}
	if heapPerPush < 2*tmPerPush {
		t.Fatalf("heap (%.2f) should cost much more per push than TM-tree (%.2f)", heapPerPush, tmPerPush)
	}
}

func TestTMTreeBalanceInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	q := NewTMTree(intLess, 4)
	total := 0
	for round := 0; round < 500; round++ {
		sz := 1 + rng.IntN(10)
		batch := make([]int, sz)
		for i := range batch {
			batch[i] = rng.IntN(1 << 20)
		}
		q.PushBatch(batch)
		total += sz
		if round%4 == 0 {
			if _, ok := q.Pop(); ok {
				total--
			}
		}
	}
	if q.Len() != total {
		t.Fatalf("size drifted: %d vs %d", q.Len(), total)
	}
	logQ := bits.Len(uint(q.Len()))
	if st := q.NumSubTrees(); st > 4*logQ {
		t.Fatalf("sub-tree count %d exceeds O(log |Q|) = %d", st, logQ)
	}
	if h := q.Height(); h > 8*logQ {
		t.Fatalf("height %d exceeds O(log |Q|) bound (log=%d)", h, logQ)
	}
}

func TestTMTreePopCostLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	q := NewTMTree(intLess, 4)
	const n = 4096
	for i := 0; i < n/8; i++ {
		batch := make([]int, 8)
		for j := range batch {
			batch[j] = rng.IntN(1 << 20)
		}
		q.PushBatch(batch)
	}
	before := q.Counts().Pop
	const pops = 512
	for i := 0; i < pops; i++ {
		q.Pop()
	}
	perPop := float64(q.Counts().Pop-before) / pops
	if perPop > 3*float64(bits.Len(n)) {
		t.Fatalf("TM-tree pop used %.1f comparisons on average for |Q|=%d", perPop, n)
	}
}

func TestCountsTotalAndAdd(t *testing.T) {
	c := Counts{Build: 1, Merge: 2, Pop: 3, Pushes: 4}
	if c.Total() != 6 {
		t.Fatalf("Total = %d", c.Total())
	}
	var acc Counts
	acc.Add(c)
	acc.Add(c)
	if acc.Build != 2 || acc.Pushes != 8 {
		t.Fatalf("Add wrong: %+v", acc)
	}
}

func TestFactory(t *testing.T) {
	for _, kind := range allKinds {
		q := New[int](kind, intLess, 4)
		q.Push(1)
		if v, ok := q.Pop(); !ok || v != 1 {
			t.Fatalf("%s: factory queue broken", kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind must panic")
		}
	}()
	New[int](Kind("nope"), intLess, 4)
}

func TestTMTreeRejectsBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha=1 must panic")
		}
	}()
	NewTMTree(intLess, 1)
}

func TestAllQueuesCountPushes(t *testing.T) {
	for _, kind := range allKinds {
		q := newQueue(kind)
		q.PushBatch([]int{1, 2, 3})
		q.Push(4)
		if c := q.Counts(); c.Pushes != 4 {
			t.Fatalf("%s: pushes = %d, want 4", kind, c.Pushes)
		}
	}
}

// TestStageCommitEqualsPushBatch: for every kind, pushing through
// Stage(items)() — with pops between Stage and commit, as a search step does
// — leaves the same queue as PushBatch: same pop sequence, same Counts.
func TestStageCommitEqualsPushBatch(t *testing.T) {
	for _, kind := range allKinds {
		rng := rand.New(rand.NewPCG(61, 7))
		direct, staged := newQueue(kind), newQueue(kind)
		for step := 0; step < 200; step++ {
			batch := make([]int, rng.IntN(12))
			for i := range batch {
				batch[i] = rng.IntN(50) // duplicates are common
			}
			commit := staged.Stage(batch)
			var pops int
			if direct.Len() > 0 {
				pops = rng.IntN(3)
			}
			for i := 0; i < pops; i++ {
				a, aok := direct.Pop()
				b, bok := staged.Pop()
				if a != b || aok != bok {
					t.Fatalf("%s step %d: popped %d/%v directly, %d/%v beside a staged push", kind, step, a, aok, b, bok)
				}
			}
			direct.PushBatch(batch)
			commit()
			if direct.Counts() != staged.Counts() || direct.Len() != staged.Len() {
				t.Fatalf("%s step %d: counts %+v/len %d directly, %+v/len %d staged",
					kind, step, direct.Counts(), direct.Len(), staged.Counts(), staged.Len())
			}
		}
		if a, b := drain(direct), drain(staged); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: drained %v directly, %v staged", kind, a, b)
		}
	}
}

// TestPeekIsNextPopForFree: Peek names the item the next Pop removes and
// charges no comparison.
func TestPeekIsNextPopForFree(t *testing.T) {
	for _, kind := range allKinds {
		calls := 0
		q := New[int](kind, func(a, b int) bool { calls++; return a < b }, 4)
		if _, ok := q.Peek(); ok {
			t.Fatalf("%s: Peek on an empty queue reported an item", kind)
		}
		rng := rand.New(rand.NewPCG(62, 7))
		for step := 0; step < 300; step++ {
			if rng.IntN(3) > 0 {
				batch := make([]int, 1+rng.IntN(6))
				for i := range batch {
					batch[i] = rng.IntN(40)
				}
				q.PushBatch(batch)
			}
			before, counts := calls, q.Counts()
			top, ok := q.Peek()
			if calls != before || q.Counts() != counts {
				t.Fatalf("%s step %d: Peek compared", kind, step)
			}
			got, gok := q.Pop()
			if top != got || ok != gok {
				t.Fatalf("%s step %d: Peek %d/%v, Pop %d/%v", kind, step, top, ok, got, gok)
			}
		}
	}
}

// TestTMTreeStageBesidePop runs the tournament build on one goroutine while
// another pops — what a lockstep search step does — for the race detector,
// and checks the result against the sequential order of the same operations.
func TestTMTreeStageBesidePop(t *testing.T) {
	batchLess := func(pairs [][2]int) []bool {
		res := make([]bool, len(pairs))
		for i, p := range pairs {
			res[i] = p[0] < p[1]
		}
		return res
	}
	seq, par := NewTMTree[int](intLess, 4), NewTMTree[int](intLess, 4)
	seq.SetBatchLess(batchLess)
	par.SetBatchLess(batchLess)
	rng := rand.New(rand.NewPCG(63, 7))
	for step := 0; step < 300; step++ {
		batch := make([]int, rng.IntN(20))
		for i := range batch {
			batch[i] = rng.IntN(100)
		}
		want, wok := seq.Pop()
		seq.PushBatch(batch)

		staged := make(chan func())
		go func() { staged <- par.Stage(batch) }()
		got, gok := par.Pop()
		(<-staged)()
		if got != want || gok != wok || par.Counts() != seq.Counts() {
			t.Fatalf("step %d: popped %d/%v beside Stage, %d/%v before it; counts %+v vs %+v",
				step, got, gok, want, wok, par.Counts(), seq.Counts())
		}
	}
	if a, b := drain(seq), drain(par); !reflect.DeepEqual(a, b) {
		t.Fatalf("drained %v sequentially, %v staged beside pops", a, b)
	}
}
