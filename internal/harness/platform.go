package harness

// Platform models one of the paper's evaluation machines by its hardware
// thread count (§V-C). On a single host the parallelism budget is the
// dominant platform knob the tuner reacts to (it shapes the optimal S, and
// indirectly CI/CB via changed build/render balance), so Figure 7c is
// reproduced by capping workers per platform. ISA and cache differences are
// out of scope — see DESIGN.md §4.
type Platform struct {
	Name    string
	Threads int
}

// Platforms returns the paper's four machines:
// a dual AMD Opteron 6168 (2x12 cores), an Intel Xeon E5-1620 (8 threads),
// an Intel i7-4770K (8 threads) and a mobile AMD A8-4500M (4 threads).
func Platforms() []Platform {
	return []Platform{
		{Name: "Opteron-6168x2", Threads: 24},
		{Name: "Xeon-E5-1620", Threads: 8},
		{Name: "i7-4770K", Threads: 8},
		{Name: "A8-4500M", Threads: 4},
	}
}
