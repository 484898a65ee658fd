// Package detfx is the determinism-rule fixture: it is listed in the test
// config's Scopes["determinism"], so every wall-clock read, global-source
// rand call, map range, and raw goroutine below must be reported (or
// suppressed by the pragma sites, which double as suppression tests).
package detfx

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want `time\.Now in a determinism-scoped package`
	return time.Since(start) // want `time\.Since in a determinism-scoped package`
}

func deadline(d time.Duration) time.Duration {
	return time.Until(time.Time{}.Add(d)) // want `time\.Until`
}

func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `math/rand\.Shuffle draws from the global source`
	return rand.Intn(10)               // want `math/rand\.Intn draws from the global source`
}

func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // constructors are fine: the seed is explicit
	return rng.Float64()
}

func mapOrder(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order is nondeterministic`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// commutativeFold shows the sanctioned escape hatch: the fold is a sum, so
// visit order cannot change the result, and the pragma records that
// argument on the line it covers.
func commutativeFold(m map[string]int) int {
	total := 0
	//kdlint:allow determinism.maprange summing ints commutes; order cannot change the total
	for _, v := range m {
		total += v
	}
	return total
}

func rawGoroutine(ch chan int) {
	go func() { ch <- 1 }() // want `raw go statement outside the parallel substrate`
}
