package parallel

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForChunksContract fuzzes the chunk-index contract over randomized
// (n, workers, grain): every index is covered exactly once, every chunk
// index is in [0, ChunkCount), chunk indices are dense, and chunk ranges
// are ordered by their index.
func TestForChunksContract(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for round := 0; round < 200; round++ {
		n := r.Intn(5000)
		workers := r.Intn(20) - 2 // includes 0 and negatives
		grain := r.Intn(300) - 10
		chunks := ChunkCount(n, workers, grain)

		seen := make([]int32, n)
		type span struct{ lo, hi int }
		spans := make([]span, chunks)
		var called atomic.Int32
		ForChunks(nil, n, workers, grain, func(chunk, lo, hi int) {
			if chunk < 0 || chunk >= chunks {
				t.Errorf("n=%d w=%d g=%d: chunk %d outside [0,%d)", n, workers, grain, chunk, chunks)
				return
			}
			called.Add(1)
			spans[chunk] = span{lo, hi}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		if int(called.Load()) != chunks {
			t.Fatalf("n=%d w=%d g=%d: body ran %d times, ChunkCount says %d", n, workers, grain, called.Load(), chunks)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d w=%d g=%d: index %d visited %d times", n, workers, grain, i, c)
			}
		}
		prev := 0
		for ci, s := range spans {
			if s.lo != prev || s.hi <= s.lo {
				t.Fatalf("n=%d w=%d g=%d: chunk %d spans [%d,%d), want lo=%d", n, workers, grain, ci, s.lo, s.hi, prev)
			}
			prev = s.hi
		}
		if prev != n {
			t.Fatalf("n=%d w=%d g=%d: chunks end at %d, want %d", n, workers, grain, prev, n)
		}
	}
}

func TestForChunksRespectsGrain(t *testing.T) {
	var spans sync.Map
	ForChunks(nil, 10000, 16, 1000, func(chunk, lo, hi int) { spans.Store(chunk, hi-lo) })
	spans.Range(func(_, v any) bool {
		if v.(int) < 1000 {
			t.Fatalf("chunk of %d elements below grain 1000", v.(int))
		}
		return true
	})
	if got := ChunkCount(10, 8, 64); got != 1 {
		t.Fatalf("ChunkCount(10,8,64) = %d, want 1 (whole range below grain)", got)
	}
}

func TestSplitBudget(t *testing.T) {
	for _, tc := range []struct {
		workers, outerN, wantOuter, wantInner int
	}{
		{8, 1, 1, 8},
		{8, 3, 3, 2},
		{8, 8, 8, 1},
		{8, 100, 8, 1},
		{1, 10, 1, 1},
		{0, 0, 0, 0}, // defaults: just check invariants below
		{-3, 5, 0, 0},
	} {
		outer, inner := SplitBudget(tc.workers, tc.outerN, 0)
		if tc.wantOuter != 0 && (outer != tc.wantOuter || inner != tc.wantInner) {
			t.Fatalf("SplitBudget(%d,%d) = (%d,%d), want (%d,%d)",
				tc.workers, tc.outerN, outer, inner, tc.wantOuter, tc.wantInner)
		}
		norm := normWorkers(tc.workers)
		if outer < 1 || inner < 1 || outer*inner > norm {
			t.Fatalf("SplitBudget(%d,%d) = (%d,%d) oversubscribes budget %d",
				tc.workers, tc.outerN, outer, inner, norm)
		}
	}
}

func TestSplitBudgetBias(t *testing.T) {
	for _, tc := range []struct {
		workers, outerN, bias, wantOuter, wantInner int
	}{
		{8, 8, 0, 8, 1},
		{8, 8, 1, 4, 2},
		{8, 8, 2, 2, 4},
		{8, 8, 3, 1, 8},
		{8, 8, 9, 1, 8}, // bias beyond the floor saturates at outer=1
		{8, 3, 1, 2, 4}, // halving rounds up: 3 -> 2
		{8, 3, 2, 1, 8},
		{1, 10, 3, 1, 1},
		{6, 5, 1, 3, 2},
	} {
		outer, inner := SplitBudget(tc.workers, tc.outerN, tc.bias)
		if outer != tc.wantOuter || inner != tc.wantInner {
			t.Fatalf("SplitBudget(%d,%d,%d) = (%d,%d), want (%d,%d)",
				tc.workers, tc.outerN, tc.bias, outer, inner, tc.wantOuter, tc.wantInner)
		}
		if outer < 1 || inner < 1 || outer*inner > normWorkers(tc.workers) {
			t.Fatalf("SplitBudget(%d,%d,%d) = (%d,%d) oversubscribes budget",
				tc.workers, tc.outerN, tc.bias, outer, inner)
		}
	}
}

// TestStressScanReducePool hammers the primitives with randomized shapes
// and concurrent outer callers; run under -race (CI does) to surface
// scheduling-coupling bugs.
func TestStressScanReducePool(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 6
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for round := 0; round < rounds; round++ {
				n := 1 + r.Intn(30000)
				workers := 1 + r.Intn(12)
				src := make([]int, n)
				for i := range src {
					src[i] = r.Intn(200) - 100
				}
				wantSum := 0
				want := make([]int, n)
				for i, v := range src {
					want[i] = wantSum
					wantSum += v
				}
				dst := make([]int, n)
				if total := ExclusiveScan(nil, dst, src, workers); total != wantSum {
					t.Errorf("scan total %d, want %d", total, wantSum)
					return
				}
				for i := range want {
					if dst[i] != want[i] {
						t.Errorf("scan[%d] = %d, want %d", i, dst[i], want[i])
						return
					}
				}
				// A chunk-indexed reduction: per-chunk partials merged in
				// ascending chunk order, the pattern the builders use.
				partials := make([]int, ChunkCount(n, workers, 1))
				ForChunks(nil, n, workers, 1, func(chunk, lo, hi int) {
					for i := lo; i < hi; i++ {
						partials[chunk] += src[i]
					}
				})
				got := 0
				for _, v := range partials {
					got += v
				}
				if got != wantSum {
					t.Errorf("chunked reduce %d, want %d", got, wantSum)
					return
				}
				p := NewPool(workers)
				var count atomic.Int64
				tasks := 1 + r.Intn(200)
				for i := 0; i < tasks; i++ {
					p.Spawn(func() { count.Add(1) })
				}
				p.Wait()
				if int(count.Load()) != tasks {
					t.Errorf("pool ran %d of %d tasks", count.Load(), tasks)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
}

// TestForChunksNestedBudget exercises the nested-loop pattern the in-place
// builder uses: an outer For over nodes wrapping inner ForChunks calls
// with a split budget, with per-chunk counting and offset-based writes.
func TestForChunksNestedBudget(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	outerN := 20
	sizes := make([]int, outerN)
	for i := range sizes {
		sizes[i] = r.Intn(20000)
	}
	outerW, innerW := SplitBudget(8, outerN, 0)
	results := make([]int, outerN)
	For(nil, outerN, outerW, func(lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			n := sizes[ni]
			counts := make([]int, ChunkCount(n, innerW, 256))
			ForChunks(nil, n, innerW, 256, func(chunk, lo, hi int) {
				counts[chunk] = hi - lo
			})
			total := 0
			for _, c := range counts {
				total += c
			}
			results[ni] = total
		}
	})
	for i, got := range results {
		if got != sizes[i] {
			t.Fatalf("nested loop %d covered %d of %d", i, got, sizes[i])
		}
	}
}
