// Package lint implements kdlint, the repository's static-analysis driver.
//
// kdlint encodes the invariants this codebase's correctness arguments lean
// on — deterministic tree construction, guarded entry into builds,
// cancellation threading through every parallel dispatch, arena alias
// hygiene, and allocation-free hot paths — as mechanical checks over the
// typed AST. The driver is built from the standard library only
// (go/parser, go/ast, go/types, go/importer); there is no dependency on
// golang.org/x/tools.
//
// Each invariant lives in its own rule package under internal/lint/
// (determinism, guard, arena, hotpath); this package provides the shared
// machinery: the package loader, the diagnostic and suppression engine, and
// the configuration that scopes rules to the packages whose contracts they
// police.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one rule finding at one source position.
type Diagnostic struct {
	// Rule is the dotted rule category, e.g. "guard.cancel" or
	// "determinism.maprange". The prefix before the first dot names the
	// rule package that produced it.
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in the conventional file:line:col form used
// by go vet, with the rule category appended so a finding can be traced to
// (or suppressed for) its rule.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Rule)
}

// Rule is one named invariant check. Check inspects a single type-checked
// package and reports findings through the pass; it must not retain the
// pass.
type Rule struct {
	Name  string // rule family name, e.g. "guard"
	Doc   string // one-line description for -help output
	Check func(*Pass)
}

// Pass is the per-(package, rule) context handed to Rule.Check.
type Pass struct {
	Pkg    *Package
	Cfg    *Config
	report func(Diagnostic)
}

// Reportf records a finding in category rule at pos.
func (p *Pass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Rule:    rule,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Config scopes the rules to the packages whose invariants they police.
// Paths are full import paths. The zero value disables everything; use
// DefaultConfig for the repository's real layout. Fixture tests substitute
// their own package paths so every rule is exercised end to end against
// real type information.
type Config struct {
	// ParallelPackage is the fork-join substrate; its exported dispatch
	// functions define the call sites the guard rule audits. The package
	// itself is exempt from guard.cancel and determinism.goroutine — it is
	// the allowlisted implementation the invariants are defined against.
	ParallelPackage string

	// KDTreePackage hosts the Builder whose BuildGuarded entry point the
	// guard.entry rule enforces.
	KDTreePackage string

	// RawBuildEntries are the functions and methods that start an
	// unguarded build, qualified as "<pkgpath>.<Func>" or
	// "<pkgpath>.<Type>.<Method>". Calls from outside the declaring
	// package must use GuardedEntry instead or carry a //kdlint:noguard
	// pragma.
	RawBuildEntries []string

	// GuardedEntry is the sanctioned external entry point (BuildGuarded).
	GuardedEntry string

	// DeterminismPackages are the packages whose outputs must be
	// bit-identical across runs and worker counts; determinism.* rules
	// apply inside them.
	DeterminismPackages []string

	// GoroutineAllowlist are packages allowed to use raw go statements
	// even when listed in DeterminismPackages (the parallel substrate).
	GoroutineAllowlist []string

	// ArenaPackages are packages using pooled build arenas; arena.* rules
	// apply inside them.
	ArenaPackages []string

	// ArenaTypes are the (unexported, package-local) type names whose
	// fields are pooled storage, e.g. "arena". A slice or pointer derived
	// from a field of such a type must not cross the package's public
	// surface.
	ArenaTypes []string

	// SAHPackage hosts the binned SAH split search whose bins and grain
	// arguments the tunable rule audits.
	SAHPackage string

	// TunablePackages are the packages whose parallel-dispatch grains and
	// SAH bin counts must flow from the tunable registry (or its named
	// defaults) rather than inline literals; tunable.* rules apply inside
	// them. The parallel substrate itself is exempt.
	TunablePackages []string

	// IncludeTests selects whether _test.go files are loaded and linted.
	IncludeTests bool

	// --- dataflow rules (ctxflow, atomics, locks, resource) ---

	// CtxFlowPackages are the request-serving packages whose blocking
	// operations must be dominated by the request context; ctxflow.* rules
	// apply inside them.
	CtxFlowPackages []string

	// CtxGuardFunc derives a build Guard from a context, as
	// "<pkgpath>.<Func>". GuardedEntry calls inside CtxFlowPackages must
	// thread a guard produced by it.
	CtxGuardFunc string

	// CtxLinkFunc links a Canceler to a context, as "<pkgpath>.<Func>".
	// A Canceler handed to a dispatch inside CtxFlowPackages must first
	// flow through it (or arrive as a parameter, linked by the caller).
	CtxLinkFunc string

	// CancelerType is the cooperative-cancellation flag type the parallel
	// substrate polls, as "<pkgpath>.<Type>".
	CancelerType string

	// BlockingFuncs are calls the ctxflow and locks rules treat as
	// potentially blocking, as "<pkgpath>.<Func>" or
	// "<pkgpath>.<Type>.<Method>", beyond the built-in channel, select
	// and sync cases.
	BlockingFuncs []string

	// AtomicsPackages are the packages subject to atomics.* rules: a
	// field accessed through sync/atomic anywhere must be accessed
	// atomically everywhere.
	AtomicsPackages []string

	// LocksPackages are the packages subject to locks.* rules: no
	// blocking operation while a mutex is held, and only declared lock
	// nesting.
	LocksPackages []string

	// LockOrder declares the sanctioned mutex nesting as "outer<inner"
	// pairs of lock classes ("<pkgpath>.<Type>.<field>"). Nesting
	// observed in the code but not declared here — in either direction —
	// is a locks.order finding.
	LockOrder []string

	// LockMethods maps callee keys to the lock class the callee acquires
	// (and releases) internally, so nesting through accessor methods is
	// visible without interprocedural analysis.
	LockMethods map[string]string

	// ResourcePackages are the packages subject to resource.* rules.
	ResourcePackages []string

	// Resources are the acquire/release protocols the resource rule
	// enforces inside ResourcePackages.
	Resources []ResourceSpec

	// Latches are the latch types whose publish obligation the resource
	// rule enforces inside ResourcePackages.
	Latches []LatchSpec
}

// ResourceSpec is one acquire/release protocol: a value bound from an
// Acquire call must, on every path out of the binding function — panic
// edges included — reach a Release call, be handed off per the consume
// flags, or be waived by an error-result check on the acquiring call.
type ResourceSpec struct {
	Name    string   // short name used in messages, e.g. "Builder"
	Acquire []string // callee keys whose bound results create the obligation
	Release []string // callee keys that discharge it (value as receiver or argument)

	// ConsumeOnStore discharges the obligation when the value is stored
	// into a composite literal or struct field, or returned — ownership
	// transferred to another holder.
	ConsumeOnStore bool

	// ConsumeOnCall discharges the obligation when the value is passed
	// as an argument to any call — ownership transferred to the callee.
	ConsumeOnCall bool
}

// LatchSpec is one latch protocol: binding a composite literal of Type
// obliges the function to publish the latch on every path out — by
// closing one of its channel fields, calling one of the Fill callees on
// it, or handing it to the callee that will (any call argument).
type LatchSpec struct {
	Type string   // latch type, as "<pkgpath>.<Type>"
	Fill []string // callee keys that publish the latch
}

// DefaultConfig returns the scoping for this repository.
func DefaultConfig() *Config {
	return &Config{
		ParallelPackage: "kdtune/internal/parallel",
		KDTreePackage:   "kdtune/internal/kdtree",
		RawBuildEntries: []string{
			"kdtune/internal/kdtree.Build",
			"kdtune/internal/kdtree.Builder.Build",
			"kdtune.Build",
		},
		GuardedEntry: "BuildGuarded",
		DeterminismPackages: []string{
			"kdtune/internal/kdtree",
			"kdtune/internal/sah",
			"kdtune/internal/parallel",
		},
		GoroutineAllowlist: []string{"kdtune/internal/parallel"},
		ArenaPackages:      []string{"kdtune/internal/kdtree"},
		ArenaTypes:         []string{"arena"},
		SAHPackage:         "kdtune/internal/sah",
		TunablePackages: []string{
			"kdtune/internal/kdtree",
			"kdtune/internal/sah",
		},
		CtxFlowPackages: []string{"kdtune/internal/serve"},
		CtxGuardFunc:    "kdtune/internal/kdtree.GuardFromContext",
		CtxLinkFunc:     "kdtune/internal/parallel.LinkContext",
		CancelerType:    "kdtune/internal/parallel.Canceler",
		BlockingFuncs: []string{
			"kdtune/internal/kdtree.Builder.BuildGuarded",
			"kdtune/internal/render.RenderInto",
			"kdtune/internal/parallel.For",
			"kdtune/internal/parallel.ForChunks",
			"kdtune/internal/parallel.Pool.Wait",
		},
		AtomicsPackages: []string{
			"kdtune/internal/serve",
			"kdtune/internal/parallel",
			"kdtune/internal/harness",
		},
		LocksPackages: []string{
			"kdtune/internal/serve",
			"kdtune/internal/parallel",
			"kdtune/internal/harness",
		},
		LockOrder: []string{
			"kdtune/internal/serve.cacheEntry.mu<kdtune/internal/serve.CachedTree.mu",
			"kdtune/internal/serve.admission.mu<kdtune/internal/serve.Breaker.mu",
		},
		LockMethods: map[string]string{
			"kdtune/internal/serve.CachedTree.acquire":   "kdtune/internal/serve.CachedTree.mu",
			"kdtune/internal/serve.CachedTree.Release":   "kdtune/internal/serve.CachedTree.mu",
			"kdtune/internal/serve.CachedTree.retire":    "kdtune/internal/serve.CachedTree.mu",
			"kdtune/internal/serve.Breaker.Allow":        "kdtune/internal/serve.Breaker.mu",
			"kdtune/internal/serve.Breaker.CancelProbe":  "kdtune/internal/serve.Breaker.mu",
			"kdtune/internal/serve.Breaker.Record":       "kdtune/internal/serve.Breaker.mu",
			"kdtune/internal/serve.Breaker.State":        "kdtune/internal/serve.Breaker.mu",
			"kdtune/internal/serve.BuilderPool.Get":      "kdtune/internal/serve.poolShard.mu",
			"kdtune/internal/serve.BuilderPool.Put":      "kdtune/internal/serve.poolShard.mu",
			"kdtune/internal/serve.BuilderPool.Size":     "kdtune/internal/serve.poolShard.mu",
			"kdtune/internal/serve.treeCache.entry":      "kdtune/internal/serve.treeCache.mu",
			"kdtune/internal/serve.treeCache.Invalidate": "kdtune/internal/serve.cacheEntry.mu",
			"kdtune/internal/serve.treeCache.Generation": "kdtune/internal/serve.cacheEntry.mu",
		},
		ResourcePackages: []string{"kdtune/internal/serve"},
		Resources: []ResourceSpec{
			{
				Name:           "Builder",
				Acquire:        []string{"kdtune/internal/serve.BuilderPool.Get"},
				Release:        []string{"kdtune/internal/serve.BuilderPool.Put"},
				ConsumeOnStore: true,
			},
			{
				Name: "CachedTree",
				Acquire: []string{
					"kdtune/internal/serve.CachedTree.acquire",
					"kdtune/internal/serve.treeCache.Get",
					"kdtune/internal/serve.treeCache.fill",
					"kdtune/internal/serve.treeCache.ladder",
					"kdtune/internal/serve.treeCache.fallbackFill",
					"kdtune/internal/serve.Server.tree",
				},
				Release: []string{
					"kdtune/internal/serve.CachedTree.Release",
					"kdtune/internal/serve.CachedTree.retire",
				},
				ConsumeOnStore: true,
			},
		},
		Latches: []LatchSpec{
			{Type: "kdtune/internal/serve.fillState"},
		},
	}
}

// inList reports whether path is one of the listed package paths.
func inList(path string, list []string) bool {
	for _, p := range list {
		if p == path {
			return true
		}
	}
	return false
}

// InDeterminismScope reports whether the pass's package is subject to
// determinism.* rules.
func (p *Pass) InDeterminismScope() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.DeterminismPackages)
}

// InArenaScope reports whether the pass's package is subject to arena.*
// rules.
func (p *Pass) InArenaScope() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.ArenaPackages)
}

// InTunableScope reports whether the pass's package is subject to
// tunable.* rules.
func (p *Pass) InTunableScope() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.TunablePackages)
}

// InCtxFlowScope reports whether the pass's package is subject to
// ctxflow.* rules.
func (p *Pass) InCtxFlowScope() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.CtxFlowPackages)
}

// InAtomicsScope reports whether the pass's package is subject to
// atomics.* rules.
func (p *Pass) InAtomicsScope() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.AtomicsPackages)
}

// InLocksScope reports whether the pass's package is subject to locks.*
// rules.
func (p *Pass) InLocksScope() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.LocksPackages)
}

// InResourceScope reports whether the pass's package is subject to
// resource.* rules.
func (p *Pass) InResourceScope() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.ResourcePackages)
}

// GoroutinesAllowed reports whether raw go statements are allowlisted in
// the pass's package (the parallel substrate itself).
func (p *Pass) GoroutinesAllowed() bool {
	return inList(p.Pkg.PkgPath(), p.Cfg.GoroutineAllowlist)
}

// IsParallelPackage reports whether the pass's package is the fork-join
// substrate itself, which is exempt from the call-site rules defined in
// terms of it.
func (p *Pass) IsParallelPackage() bool {
	return p.Pkg.PkgPath() == p.Cfg.ParallelPackage
}

// Run applies every rule to every package, layers in the pragma
// diagnostics, filters suppressed findings, and returns the rest sorted by
// position. It is the single entry point used by cmd/kdlint and the fixture
// harness, so suppression semantics cannot diverge between them.
func Run(pkgs []*Package, cfg *Config, rules []Rule) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pragmas, pragmaDiags := parsePragmas(pkg)
		diags = append(diags, pragmaDiags...)

		var raw []Diagnostic
		pass := &Pass{Pkg: pkg, Cfg: cfg, report: func(d Diagnostic) { raw = append(raw, d) }}
		for _, r := range rules {
			r.Check(pass)
		}
		for _, d := range raw {
			if !pragmas.suppresses(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}
