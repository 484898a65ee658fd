package parallel

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 7, 100, 1001} {
			seen := make([]int32, n)
			For(nil, n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForDefaultWorkers(t *testing.T) {
	var count atomic.Int64
	For(nil, 1000, 0, func(lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 1000 {
		t.Fatalf("covered %d of 1000", count.Load())
	}
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func TestForGrainSequentialBelowGrain(t *testing.T) {
	calls := 0 // no atomics: must run on the caller goroutine in one chunk
	ForChunks(nil, 10, 8, 64, func(_, lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single chunk [0,10), got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected exactly one sequential chunk, got %d", calls)
	}
}

func TestForGrainChunksRespectGrain(t *testing.T) {
	var mu sync.Mutex
	sizes := []int{}
	ForChunks(nil, 1000, 4, 100, func(_, lo, hi int) {
		mu.Lock()
		sizes = append(sizes, hi-lo)
		mu.Unlock()
	})
	total := 0
	for _, s := range sizes {
		total += s
		if s < 100 && total != 1000 { // only the final remainder may be short
			t.Fatalf("chunk of size %d below grain", s)
		}
	}
	if total != 1000 {
		t.Fatalf("chunks cover %d of 1000", total)
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	var count atomic.Int64
	for i := 0; i < 1000; i++ {
		p.Spawn(func() { count.Add(1) })
	}
	p.Wait()
	if count.Load() != 1000 {
		t.Fatalf("ran %d of 1000 tasks", count.Load())
	}
	spawned, inline := p.Stats()
	if spawned+inline != 1000 {
		t.Fatalf("stats %d+%d != 1000", spawned, inline)
	}
}

func TestPoolRecursiveSpawnNoDeadlock(t *testing.T) {
	// Recursive fork-join like the node-level builder: every task spawns two
	// children down to a depth. With 2 workers most tasks must run inline;
	// the pool must neither deadlock nor lose tasks.
	p := NewPool(2)
	var count atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		count.Add(1)
		if depth == 0 {
			return
		}
		var wg sync.WaitGroup
		wg.Add(2)
		p.Spawn(func() { defer wg.Done(); rec(depth - 1) })
		p.Spawn(func() { defer wg.Done(); rec(depth - 1) })
		wg.Wait()
	}
	rec(10)
	p.Wait()
	if want := int64(1<<11 - 1); count.Load() != want {
		t.Fatalf("ran %d tasks, want %d", count.Load(), want)
	}
}

func TestPoolWorkersBudget(t *testing.T) {
	p := NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers = %d", p.Workers())
	}
	if NewPool(0).Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
	// Concurrency never exceeds the slot budget (inline tasks run on
	// spawning goroutines, which are themselves workers or the caller; we
	// check only goroutine-backed tasks here).
	var cur, peak atomic.Int64
	q := NewPool(2)
	block := make(chan struct{})
	// Wait must not race with Spawn (the Pool contract), so the spawning
	// goroutines are joined before it.
	var spawners sync.WaitGroup
	for i := 0; i < 16; i++ {
		spawners.Add(1)
		go func() {
			defer spawners.Done()
			q.Spawn(func() {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				<-block
				cur.Add(-1)
			})
		}()
	}
	close(block)
	spawners.Wait()
	q.Wait()
}

func TestExclusiveScanMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, n := range []int{0, 1, 2, 100, 4095, 4096, 4097, 100000} {
		src := make([]int, n)
		for i := range src {
			src[i] = r.Intn(100) - 50
		}
		want := make([]int, n)
		sum := 0
		for i := 0; i < n; i++ {
			want[i] = sum
			sum += src[i]
		}
		got := make([]int, n)
		total := ExclusiveScan(nil, got, src, 8)
		if total != sum {
			t.Fatalf("n=%d: total %d, want %d", n, total, sum)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestExclusiveScanInPlace(t *testing.T) {
	n := 50000
	src := make([]int, n)
	for i := range src {
		src[i] = 1
	}
	total := ExclusiveScan(nil, src, src, 4)
	if total != n {
		t.Fatalf("total = %d", total)
	}
	for i := 0; i < n; i++ {
		if src[i] != i {
			t.Fatalf("in-place scan wrong at %d: %d", i, src[i])
		}
	}
}

func TestExclusiveScanFloat(t *testing.T) {
	src := []float64{0.5, 1.5, 2.0}
	dst := make([]float64, 3)
	total := ExclusiveScan(nil, dst, src, 2)
	if total != 4.0 || dst[0] != 0 || dst[1] != 0.5 || dst[2] != 2.0 {
		t.Fatalf("float scan wrong: %v total %v", dst, total)
	}
}

func TestExclusiveScanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	ExclusiveScan(nil, make([]int, 2), make([]int, 3), 1)
}

func TestQuickScanProperty(t *testing.T) {
	f := func(vals []int16, workers uint8) bool {
		src := make([]int, len(vals))
		for i, v := range vals {
			src[i] = int(v)
		}
		dst := make([]int, len(src))
		total := ExclusiveScan(nil, dst, src, int(workers%8)+1)
		sum := 0
		for i, v := range src {
			if dst[i] != sum {
				return false
			}
			sum += v
		}
		return total == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortFuncMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for _, n := range []int{0, 1, 2, 100, 8191, 8192, 8193, 100000} {
		for _, workers := range []int{1, 2, 7} {
			s := make([]int, n)
			for i := range s {
				s[i] = r.Intn(1000)
			}
			SortFunc(nil, s, workers, func(a, b int) int { return a - b })
			for i := 1; i < n; i++ {
				if s[i-1] > s[i] {
					t.Fatalf("n=%d workers=%d: unsorted at %d", n, workers, i)
				}
			}
		}
	}
}

func TestSortFuncPreservesMultiset(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	n := 50000
	s := make([]int, n)
	counts := map[int]int{}
	for i := range s {
		s[i] = r.Intn(64)
		counts[s[i]]++
	}
	SortFunc(nil, s, 8, func(a, b int) int { return a - b })
	for _, v := range s {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("value %d count off by %d", k, c)
		}
	}
}

func TestSortFuncStructsByKey(t *testing.T) {
	type kv struct {
		k float64
		v int
	}
	r := rand.New(rand.NewSource(52))
	s := make([]kv, 30000)
	for i := range s {
		s[i] = kv{k: r.Float64(), v: i}
	}
	SortFunc(nil, s, 4, func(a, b kv) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	})
	for i := 1; i < len(s); i++ {
		if s[i-1].k > s[i].k {
			t.Fatal("struct sort broken")
		}
	}
}

func TestQuickSortProperty(t *testing.T) {
	f := func(vals []int16, workers uint8) bool {
		s := make([]int, len(vals))
		for i, v := range vals {
			s[i] = int(v)
		}
		SortFunc(nil, s, int(workers%8)+1, func(a, b int) int { return a - b })
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolWaitWithoutTasks(t *testing.T) {
	p := NewPool(2)
	p.Wait() // must not block
	if s, i := p.Stats(); s != 0 || i != 0 {
		t.Fatal("phantom tasks recorded")
	}
}

func TestForGrainDefensiveGrain(t *testing.T) {
	var count atomic.Int64
	ForChunks(nil, 100, 2, 0, func(_, lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 100 {
		t.Fatalf("covered %d of 100 with grain 0", count.Load())
	}
	ForChunks(nil, 0, 2, 8, func(_, lo, hi int) { t.Fatal("body called for empty range") })
}

func TestSortFuncEmptyAndSingle(t *testing.T) {
	SortFunc(nil, []int{}, 4, func(a, b int) int { return a - b })
	s := []int{42}
	SortFunc(nil, s, 4, func(a, b int) int { return a - b })
	if s[0] != 42 {
		t.Fatal("singleton mangled")
	}
}
