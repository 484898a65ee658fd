package autotune

import "math"

// Exhaustive enumerates a (possibly strided) grid over the registered
// parameter space and tracks the optimum. It is the reference the paper
// compares the Nelder–Mead results against in §V-D4 ("Comparison to
// exhaustive search").
//
// Usage mirrors the Tuner but there is no convergence in the online sense —
// the search is Done once the grid is exhausted, after which Next keeps
// returning the optimum.
type Exhaustive struct {
	params  []*Param
	strides []int
	cursor  []int // current index per dimension (pre-stride grid walk)
	done    bool

	current  []int
	best     []int
	bestCost float64
	count    int
}

// NewExhaustive builds an exhaustive searcher over the given parameters.
// strides[i] visits every strides[i]-th value of parameter i (1 = full
// resolution); a nil strides visits everything. The full Table II grid has
// ~483k points, so the harness passes coarser strides (documented in
// DESIGN.md) to keep §V-D4 tractable.
func NewExhaustive(params []*Param, strides []int) *Exhaustive {
	e := &Exhaustive{
		params:   params,
		strides:  make([]int, len(params)),
		cursor:   make([]int, len(params)),
		bestCost: math.Inf(1),
	}
	for i := range params {
		s := 1
		if strides != nil && strides[i] > 1 {
			s = strides[i]
		}
		e.strides[i] = s
	}
	return e
}

// GridSize returns the number of configurations the walk will visit.
func (e *Exhaustive) GridSize() int {
	total := 1
	for i, p := range e.params {
		n := (len(p.values) + e.strides[i] - 1) / e.strides[i]
		total *= n
	}
	return total
}

// Next returns the configuration to measure (indices per parameter).
func (e *Exhaustive) Next() []int {
	if e.done {
		return append([]int(nil), e.best...)
	}
	cfg := make([]int, len(e.cursor))
	copy(cfg, e.cursor)
	e.current = cfg
	return cfg
}

// Report records the cost of the last configuration and advances the walk.
func (e *Exhaustive) Report(cfg []int, cost float64) {
	if e.done {
		return
	}
	e.count++
	if cost < e.bestCost {
		e.bestCost = cost
		e.best = append(e.best[:0], cfg...)
	}
	// Odometer increment with per-dimension stride.
	for d := 0; d < len(e.cursor); d++ {
		e.cursor[d] += e.strides[d]
		if e.cursor[d] < len(e.params[d].values) {
			return
		}
		e.cursor[d] = 0
	}
	e.done = true
}

// Converged reports whether the grid walk has finished.
func (e *Exhaustive) Converged() bool { return e.done }

// Best returns the best configuration (as parameter values) and its cost.
func (e *Exhaustive) Best() (values []int, cost float64, ok bool) {
	if e.best == nil {
		return nil, 0, false
	}
	values = make([]int, len(e.best))
	for i, p := range e.params {
		values[i] = p.values[e.best[i]]
	}
	return values, e.bestCost, true
}

// Evaluations returns the number of configurations measured so far.
func (e *Exhaustive) Evaluations() int { return e.count }

var _ searcher = (*Exhaustive)(nil)

// NewExhaustiveTuner wraps an Exhaustive searcher in the Tuner Start/Stop
// workflow so harness code can drive both searches identically: dimension i
// of the walk is registry tunable i, and strides[i] (nil = full resolution)
// coarsens it as in NewExhaustive.
func NewExhaustiveTuner(opts Options, reg *Registry, strides []int) (*Tuner, error) {
	t := New(opts)
	if err := t.RegisterAll(reg); err != nil {
		return nil, err
	}
	t.search = NewExhaustive(t.params, strides)
	return t, nil
}
