package pq

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// joinCalls models the batched calls of StageJoin(ready, pre, join) over
// ints: the first call is pre's pairs and then the first level of ready's
// tournament; the joiners follow that level's contenders, and each later
// call pairs neighbouring contenders. A pair asks whether its right-hand
// contender beats the left-hand one, which keeps its place on a tie.
func joinCalls(ready []int, pre [][2]int, joiners []int) [][][2]int {
	var calls [][][2]int
	level, first := slices.Clone(ready), true
	for first || len(level) > 1 {
		var call [][2]int
		if first {
			call = slices.Clone(pre)
		}
		next := make([]int, 0, len(level)/2+1)
		for i := 0; i+1 < len(level); i += 2 {
			a, b := level[i], level[i+1]
			call = append(call, [2]int{b, a})
			next = append(next, min(a, b))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		if len(call) > 0 {
			calls = append(calls, call)
		}
		if first {
			next = append(next, joiners...)
			first = false
		}
		level = next
	}
	return calls
}

// TestTMTreeStageJoinLateJoiners: a stage whose first call also carries the
// caller's pairs, and whose joiners are the left items of the pairs that
// come out true. At α ∈ {2, 3, 4, 8}, over random ready sets, pre pairs and
// queued items, the calls are the model's — pre and then ready's first
// level in one call, Stage's own calls when there is no pre pair — join gets
// exactly pre's bits, Build grows by one comparison less than the stage's
// items, and the queue pops what it held plus ready and the joiners, in
// sorted order.
func TestTMTreeStageJoinLateJoiners(t *testing.T) {
	for _, alpha := range []int{2, 3, 4, 8} {
		rng := rand.New(rand.NewPCG(uint64(alpha), 53))
		for trial := 0; trial < 400; trial++ {
			what := fmt.Sprintf("alpha %d trial %d", alpha, trial)
			draw := func(n int) []int {
				out := make([]int, n)
				for i := range out {
					out[i] = rng.IntN(60) // a small range: ties are common
				}
				return out
			}
			ready, held := draw(rng.IntN(12)), draw(rng.IntN(20))
			pre := make([][2]int, rng.IntN(10))
			if trial%4 == 0 {
				pre = nil // Stage's own calls
			}
			var joiners []int
			var wantBits []bool
			for i := range pre {
				pre[i] = [2]int{rng.IntN(60), rng.IntN(60)}
				wantBits = append(wantBits, pre[i][0] < pre[i][1])
				if pre[i][0] < pre[i][1] {
					joiners = append(joiners, pre[i][0])
				}
			}

			var calls [][][2]int
			q := NewTMTree[int](intLess, alpha)
			q.SetBatchLess(func(pairs [][2]int) []bool {
				calls = append(calls, slices.Clone(pairs))
				bits := make([]bool, len(pairs))
				for i, p := range pairs {
					bits[i] = p[0] < p[1]
				}
				return bits
			})
			q.PushBatch(held)
			calls = nil
			build := q.Counts().Build

			var gotBits []bool
			join := func(bits []bool) []int {
				gotBits = slices.Clone(bits)
				var out []int
				for i, b := range bits {
					if b {
						out = append(out, pre[i][0])
					}
				}
				return out
			}
			var commit func()
			if trial%8 == 0 { // pre is nil
				commit = q.Stage(ready)
			} else {
				commit = q.StageJoin(ready, pre, join)
			}
			if want := joinCalls(ready, pre, joiners); !reflect.DeepEqual(calls, want) {
				t.Fatalf("%s: ready %v, pre %v: calls %v, want %v", what, ready, pre, calls, want)
			}
			if !slices.Equal(gotBits, wantBits) {
				t.Fatalf("%s: join got bits %v, want pre's %v", what, gotBits, wantBits)
			}
			commit()
			if n := int64(len(ready) + len(joiners)); n > 0 && q.Counts().Build-build != n-1 {
				t.Fatalf("%s: Build grew by %d for %d items", what, q.Counts().Build-build, n)
			}
			want := slices.Concat(held, ready, joiners)
			slices.Sort(want)
			var got []int
			for q.Len() > 0 {
				v, _ := q.Pop()
				got = append(got, v)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: popped %v, want %v", what, got, want)
			}
		}
	}
}
