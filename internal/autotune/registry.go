package autotune

import (
	"fmt"
	"sort"
)

// Scale is the search-space shaping hint a tunable carries at registration.
// Tørring & Elster ("Analyzing Search Techniques for Autotuning", PAPERS.md)
// show search quality depends on how the space is presented to the searcher:
// a parameter whose useful values span decades (chunk grains, resolutions)
// must be registered on a logarithmic grid, not as a raw integer interval,
// or the search wastes its budget resolving irrelevant low-order digits.
type Scale int

const (
	// ScaleLinear enumerates min..max with the tunable's Step.
	ScaleLinear Scale = iota
	// ScalePow2 enumerates the powers of two in [min, max] — the paper's
	// treatment of τ_R = [16, 8192] (Table II), and the natural grid for
	// grains, bin counts and packet widths.
	ScalePow2
)

// String names the scale hint for diagnostics and -list-params tables.
func (s Scale) String() string {
	switch s {
	case ScaleLinear:
		return "linear"
	case ScalePow2:
		return "pow2"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// Tunable is one named tuning parameter a subsystem registers: the target
// program variable, its closed range, and the scale hint that shapes the
// value grid the searchers walk. Desc is the one-line human description
// surfaced by `kdtune -list-params` and the README tunables table.
type Tunable struct {
	Name   string
	Target *int
	Min    int
	Max    int
	Step   int // ScaleLinear stride; ignored (and defaulted to 1) for ScalePow2
	Scale  Scale
	Desc   string
}

// Values enumerates the tunable's value grid in ascending order.
func (tn Tunable) Values() ([]int, error) {
	switch tn.Scale {
	case ScalePow2:
		return pow2Values(tn.Min, tn.Max)
	case ScaleLinear:
		step := tn.Step
		if step == 0 {
			step = 1
		}
		return intervalValues(tn.Min, tn.Max, step)
	}
	return nil, fmt.Errorf("autotune: tunable %q has unknown scale %d", tn.Name, int(tn.Scale))
}

// Registry is the named tunable registry the tuning harness composes its
// search space from. Subsystems register their tunables (build grains, bin
// counts, packet widths, ...) against it during setup; the harness then
// feeds the whole registry to a Tuner with RegisterAll, so every subsystem
// shares one registration mechanism and every report can name the full
// parameter vector generically.
//
// Registration order is preserved: it defines the dimension order of the
// search space and of every value vector derived from it. A Registry is not
// safe for concurrent mutation.
type Registry struct {
	tunables []Tunable
	byName   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Register validates and appends one tunable. Names must be non-empty and
// unique within the registry; the target must be non-nil; the range must
// enumerate at least one value under the declared scale.
func (r *Registry) Register(tn Tunable) error {
	if tn.Name == "" {
		return fmt.Errorf("autotune: tunable with empty name")
	}
	if _, dup := r.byName[tn.Name]; dup {
		return fmt.Errorf("autotune: tunable %q registered twice", tn.Name)
	}
	if tn.Target == nil {
		return fmt.Errorf("autotune: tunable %q has a nil target", tn.Name)
	}
	if _, err := tn.Values(); err != nil {
		return err
	}
	if r.byName == nil {
		r.byName = map[string]int{}
	}
	r.byName[tn.Name] = len(r.tunables)
	r.tunables = append(r.tunables, tn)
	return nil
}

// Len returns the number of registered tunables.
func (r *Registry) Len() int { return len(r.tunables) }

// Tunables returns the registered tunables in registration order. The
// returned slice is shared; callers must not modify it.
func (r *Registry) Tunables() []Tunable { return r.tunables }

// Names returns the tunable names in registration order.
func (r *Registry) Names() []string {
	names := make([]string, len(r.tunables))
	for i, tn := range r.tunables {
		names[i] = tn.Name
	}
	return names
}

// Lookup finds a tunable by name.
func (r *Registry) Lookup(name string) (Tunable, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Tunable{}, false
	}
	return r.tunables[i], true
}

// Snapshot reads the current value of every registered target into a
// name-keyed map — the "full named vector" benchmark cells and traces
// report.
func (r *Registry) Snapshot() map[string]int {
	m := make(map[string]int, len(r.tunables))
	for _, tn := range r.tunables {
		m[tn.Name] = *tn.Target
	}
	return m
}

// Vector reads the current value of every registered target in
// registration order (the positional twin of Snapshot, for per-frame
// records that would drown in per-frame maps).
func (r *Registry) Vector() []int {
	v := make([]int, len(r.tunables))
	for i, tn := range r.tunables {
		v[i] = *tn.Target
	}
	return v
}

// FormatParams renders a name-keyed vector as "name=value,..." — the one
// formatter every trace, report and compare line prints configurations
// with. Values are listed in the order of names, skipping names the map
// lacks; nil names lists every key, sorted alphabetically.
func FormatParams(values map[string]int, names []string) string {
	if names == nil {
		names = make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
	}
	out := make([]byte, 0, 16*len(names))
	for _, name := range names {
		v, ok := values[name]
		if !ok {
			continue
		}
		if len(out) > 0 {
			out = append(out, ',')
		}
		out = fmt.Appendf(out, "%s=%d", name, v)
	}
	return string(out)
}

// RegisterAll registers every tunable of the registry with the tuner, in
// registration order. It is the only way parameters enter a Tuner: the
// composed parameter list defines the Nelder–Mead, exhaustive or random
// search space, and several registries may be composed onto one tuner
// before the first Start. Names stay unique across the composition: a
// registry that reuses a name already on the tuner is rejected whole, as
// Registry.Register rejects a duplicate.
func (t *Tuner) RegisterAll(reg *Registry) error {
	if t.search != nil {
		return fmt.Errorf("autotune: cannot register parameters after tuning started")
	}
	for _, tn := range reg.Tunables() {
		for _, p := range t.params {
			if p.name == tn.Name {
				return fmt.Errorf("autotune: tunable %q registered twice", tn.Name)
			}
		}
	}
	for _, tn := range reg.Tunables() {
		vals, err := tn.Values()
		if err != nil {
			return err
		}
		t.params = append(t.params, &Param{name: tn.Name, target: tn.Target, values: vals})
	}
	return nil
}

// BestByName returns the tuner's best-known configuration as a name-keyed
// map. ok is false before the first completed cycle.
func (t *Tuner) BestByName() (map[string]int, bool) {
	values, _, ok := t.Best()
	if !ok {
		return nil, false
	}
	m := make(map[string]int, len(values))
	for i, p := range t.params {
		m[p.Name()] = values[i]
	}
	return m, true
}
