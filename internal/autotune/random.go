package autotune

import (
	"math"
	"math/rand"
)

// RandomSearch is the no-structure baseline searcher: every cycle draws an
// independent uniform configuration, and the incumbent is simply the best
// sample so far. The paper's AtuneRT uses random sampling only to seed the
// Nelder–Mead simplex; keeping the pure strategy around lets experiments
// quantify what the simplex search adds over sampling alone.
type RandomSearch struct {
	params  []*Param
	rng     *rand.Rand
	budget  int // evaluations before the search freezes on the incumbent
	current []int

	best     []int
	bestCost float64
	count    int
}

// NewRandomSearch creates the baseline with the given evaluation budget
// (<=0 means never freeze: keep sampling forever).
func NewRandomSearch(params []*Param, budget int, rng *rand.Rand) *RandomSearch {
	return &RandomSearch{
		params:   params,
		rng:      rng,
		budget:   budget,
		bestCost: math.Inf(1),
	}
}

// Next returns the configuration to measure.
func (r *RandomSearch) Next() []int {
	if r.Converged() {
		return append([]int(nil), r.best...)
	}
	cfg := make([]int, len(r.params))
	for i, p := range r.params {
		cfg[i] = r.rng.Intn(len(p.values))
	}
	r.current = cfg
	return cfg
}

// Report records the measured cost.
func (r *RandomSearch) Report(cfg []int, cost float64) {
	r.count++
	if cost < r.bestCost {
		r.bestCost = cost
		r.best = append(r.best[:0], cfg...)
	}
}

// Converged reports whether the sampling budget is exhausted.
func (r *RandomSearch) Converged() bool {
	return r.budget > 0 && r.count >= r.budget && r.best != nil
}

// Evaluations returns the number of samples measured.
func (r *RandomSearch) Evaluations() int { return r.count }

var _ searcher = (*RandomSearch)(nil)

// NewRandomTuner wraps a RandomSearch over the registry's tunables in the
// Tuner workflow, mirroring NewExhaustiveTuner.
func NewRandomTuner(opts Options, reg *Registry, budget int) (*Tuner, error) {
	t := New(opts)
	if err := t.RegisterAll(reg); err != nil {
		return nil, err
	}
	t.search = NewRandomSearch(t.params, budget, t.rng)
	return t, nil
}
