package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile for it
// to describe the tail rather than a few outliers.
const minTail = 10

// percentile returns the p-quantile (0 <= p <= 1) of xs, interpolating
// linearly between the closest ranks (the estimator harness.Percentile and
// the service's /metrics use). xs is not modified; an empty xs gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p = math.Min(math.Max(p, 0), 1)
	pos := p * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minSamples is the smallest sample count that leaves minTail samples
// beyond the p-quantile: ceil(minTail / (1-p)), so 100 for p90.
func minSamples(p float64) int {
	if p >= 1 {
		return math.MaxInt
	}
	return int(math.Ceil(minTail/(1-p) - 1e-9))
}

// tailOK reports whether n samples leave at least minTail beyond the
// p-quantile.
func tailOK(n int, p float64) bool { return n >= minSamples(p) }

// runSlices is how many consecutive slices of a run's ops the slice
// statistics (ops_per_s and op_ms_p90) are medians over: a stall of the
// host slows a few slices, not the figure.
const runSlices = 8

// splitRun splits ds, op latencies in the order the ops ran back to back,
// into n consecutive slices of near-equal count (fewer when there are fewer
// ops).
func splitRun(ds []time.Duration, n int) [][]time.Duration {
	n = min(n, len(ds))
	out := make([][]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, ds[k*len(ds)/n:(k+1)*len(ds)/n])
	}
	return out
}

// sliceRates returns each slice's ops ÷ summed latency, in ops per second:
// its throughput, when its ops ran back to back.
func sliceRates(slices [][]time.Duration) []float64 {
	out := make([]float64, 0, len(slices))
	for _, s := range slices {
		var sum time.Duration
		for _, d := range s {
			sum += d
		}
		if sum > 0 {
			out = append(out, float64(len(s))/sum.Seconds())
		}
	}
	return out
}

// slicePercentile is the median over slices of each slice's p-quantile
// latency, in milliseconds.
func slicePercentile(slices [][]time.Duration, p float64) float64 {
	qs := make([]float64, 0, len(slices))
	for _, s := range slices {
		if len(s) > 0 {
			qs = append(qs, percentile(durationsMS(s), p))
		}
	}
	return median(qs)
}

// okRatio is completed-correctly ÷ attempted; failRatio its complement.
func okRatio(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

func failRatio(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// secondsOf converts durations to seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tally counts attempted and failed ops.
type tally struct{ attempted, failed int }

// record counts one op; ok is false when it failed for any reason.
func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}
