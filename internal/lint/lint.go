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
// The AST rules live one package per invariant under internal/lint/
// (determinism, guard, arena, hotpath, tunable), and the four CFG rules
// (ctxflow, atomics, locks, resource) share internal/lint/dataflow. This
// package provides the shared machinery: the package loader, the
// diagnostic and suppression engine, and the configuration that scopes
// rules to the packages whose contracts they police.
package lint

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
)

// Diagnostic is one rule finding at one source position.
type Diagnostic struct {
	// Rule is the dotted rule category, e.g. "guard.cancel" or
	// "determinism.maprange". The prefix before the first dot names the
	// rule family that produced it.
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

// ParallelPackage is the fork-join substrate; its exported dispatch
// functions define the call sites the guard and tunable rules audit. The
// package itself is exempt from guard.cancel, tunable.* and
// determinism.goroutine: it is the implementation the invariants are
// defined against.
const ParallelPackage = "kdtune/internal/parallel"

// GuardedEntry is the sanctioned external entry into a build, a method of
// the kdtree Builder.
const GuardedEntry = "BuildGuarded"

// Config scopes the rules to the packages whose invariants they police and
// holds the protocol tables of the dataflow rules. Paths are full import
// paths. DefaultConfig gives the repository's real layout; fixture tests
// re-point these fields at their own packages so every rule is exercised
// end to end against real type information.
type Config struct {
	// Scopes maps a rule family (determinism, arena, tunable, ctxflow,
	// atomics, locks, resource) to the packages it applies inside. The
	// guard and hotpath families apply everywhere and have no entry.
	Scopes map[string][]string

	// IncludeTests selects whether _test.go files are loaded and linted.
	IncludeTests bool

	// LockOrder declares the sanctioned mutex nesting as "outer<inner"
	// pairs of lock classes ("<pkgpath>.<Type>.<field>"). Nesting
	// observed in the code but not declared here — in either direction —
	// is a locks.order finding.
	LockOrder []string

	// LockMethods maps callee keys to the lock class the callee acquires
	// (and releases) internally, so nesting through accessor methods is
	// visible without interprocedural analysis.
	LockMethods map[string]string

	// Resources are the acquire/release protocols the resource rule
	// enforces.
	Resources []ResourceSpec

	// Latches are the latch types whose publish obligation the resource
	// rule enforces.
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
	const (
		kdtree  = "kdtune/internal/kdtree"
		sah     = "kdtune/internal/sah"
		serve   = "kdtune/internal/serve"
		harness = "kdtune/internal/harness"
	)
	return &Config{
		Scopes: map[string][]string{
			"determinism": {kdtree, sah, ParallelPackage},
			"arena":       {kdtree},
			"tunable":     {kdtree, sah},
			"ctxflow":     {serve},
			"atomics":     {serve, ParallelPackage, harness},
			"locks":       {serve, ParallelPackage, harness},
			"resource":    {serve},
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

// InScope reports whether the pass's package is subject to the rule
// family's checks.
func (p *Pass) InScope(family string) bool {
	return slices.Contains(p.Cfg.Scopes[family], p.Pkg.PkgPath())
}

// IsParallelPackage reports whether the pass's package is the fork-join
// substrate itself, which is exempt from the call-site rules defined in
// terms of it.
func (p *Pass) IsParallelPackage() bool {
	return p.Pkg.PkgPath() == ParallelPackage
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
