package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"kdtune/internal/lint"
	"kdtune/internal/lint/arena"
	"kdtune/internal/lint/dataflow"
	"kdtune/internal/lint/determinism"
	"kdtune/internal/lint/driver"
	"kdtune/internal/lint/guard"
	"kdtune/internal/lint/hotpath"
	"kdtune/internal/lint/linttest"
	"kdtune/internal/lint/tunable"
)

const fixtureRoot = "kdtune/internal/lint/testdata/src/"

// dataflowRules are the four CFG rules, in driver order.
var dataflowRules = []lint.Rule{dataflow.Ctxflow, dataflow.Atomics, dataflow.Locks, dataflow.Resource}

// dataflowConfig rescopes the four CFG/dataflow rules onto their fixture
// packages, with the same protocol tables the fixture comments describe.
func dataflowConfig() *lint.Config {
	const lockfx = fixtureRoot + "lockfx"
	const resfx = fixtureRoot + "resfx"
	cfg := lint.DefaultConfig()
	cfg.Scopes["ctxflow"] = []string{fixtureRoot + "ctxfx"}
	cfg.Scopes["atomics"] = []string{fixtureRoot + "atomfx"}
	cfg.Scopes["locks"] = []string{lockfx}
	cfg.LockOrder = []string{lockfx + ".outer.mu<" + lockfx + ".inner.mu"}
	cfg.LockMethods = map[string]string{lockfx + ".table.get": lockfx + ".table.mu"}
	cfg.Scopes["resource"] = []string{resfx}
	cfg.Resources = []lint.ResourceSpec{{
		Name:           "conn",
		Acquire:        []string{resfx + ".pool.Get", resfx + ".pool.GetErr"},
		Release:        []string{resfx + ".pool.Put", resfx + ".conn.Close"},
		ConsumeOnStore: true,
	}}
	cfg.Latches = []lint.LatchSpec{{
		Type: resfx + ".latch",
		Fill: []string{resfx + ".latch.publish"},
	}}
	return cfg
}

func TestDeterminismRule(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.Scopes["determinism"] = []string{fixtureRoot + "detfx"}
	linttest.Run(t, fixtureRoot+"detfx", cfg, []lint.Rule{determinism.Rule})
}

// TestGuardRule needs no rescoping: the fixture imports the real parallel
// and kdtree packages, so the default config's dispatch and entry tables
// apply as-is.
func TestGuardRule(t *testing.T) {
	linttest.Run(t, fixtureRoot+"guardfx", lint.DefaultConfig(), []lint.Rule{guard.Rule})
}

func TestArenaRule(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.Scopes["arena"] = []string{fixtureRoot + "arenafx"}
	linttest.Run(t, fixtureRoot+"arenafx", cfg, []lint.Rule{arena.Rule})
}

// TestHotpathRule: the rule is driven by //kdlint:hotpath markers, not
// package scoping, so the default config applies.
func TestHotpathRule(t *testing.T) {
	linttest.Run(t, fixtureRoot+"hotfx", lint.DefaultConfig(), []lint.Rule{hotpath.Rule})
}

// TestTunableRule rescopes the tunable family onto the fixture; the dispatch
// and SAH argument-position tables are checked against the real signatures
// the fixture imports.
func TestTunableRule(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.Scopes["tunable"] = []string{fixtureRoot + "tunablefx"}
	linttest.Run(t, fixtureRoot+"tunablefx", cfg, []lint.Rule{tunable.Rule})
}

// TestTunableRuleOutOfScope pins the scoping: the same fixture is silent
// when not listed in the tunable scope.
func TestTunableRuleOutOfScope(t *testing.T) {
	pkgs, err := lint.Load("", []string{fixtureRoot + "tunablefx"}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lint.DefaultConfig() // scopes point at the real repo packages
	for _, d := range lint.Run(pkgs, cfg, []lint.Rule{tunable.Rule}) {
		t.Errorf("out-of-scope finding: %s", d)
	}
}

// TestPragmaEngine checks that malformed pragmas are diagnosed, reasonless
// pragmas suppress nothing, and valid pragmas suppress the line below.
func TestPragmaEngine(t *testing.T) {
	linttest.Run(t, fixtureRoot+"pragmafx", lint.DefaultConfig(), []lint.Rule{guard.Rule})
}

// TestRulesCleanOnFixturesOutOfScope pins the scoping logic: determinism
// and arena rules must stay silent on packages not listed in their scope,
// no matter what the code does.
func TestRulesCleanOutOfScope(t *testing.T) {
	pkgs, err := lint.Load("", []string{fixtureRoot + "detfx", fixtureRoot + "arenafx"}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lint.DefaultConfig() // scopes point at the real repo packages, not the fixtures
	for _, d := range lint.Run(pkgs, cfg, []lint.Rule{determinism.Rule, arena.Rule}) {
		t.Errorf("out-of-scope finding: %s", d)
	}
}

// TestLoadTestVariant exercises the -test loading path: the internal test
// variant replaces the plain package and type-checks test files against
// bracket-variant export data.
func TestLoadTestVariant(t *testing.T) {
	pkgs, err := lint.Load("", []string{"kdtune/internal/sah"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1 (variant replaces plain)", len(pkgs))
	}
	p := pkgs[0]
	if p.ForTest != "kdtune/internal/sah" {
		t.Errorf("ForTest = %q, want kdtune/internal/sah", p.ForTest)
	}
	if p.PkgPath() != "kdtune/internal/sah" {
		t.Errorf("PkgPath = %q, want the plain path", p.PkgPath())
	}
	hasTestFile := false
	for _, f := range p.Files {
		if name := p.Fset.Position(f.Pos()).Filename; filepath.Base(name) == "sah_test.go" {
			hasTestFile = true
		}
	}
	if !hasTestFile {
		t.Error("test variant does not include sah_test.go")
	}
}

// TestCtxflowRule: the fixture imports the real parallel and kdtree
// packages, so the default guard/link tables apply; only the scope is
// moved onto the fixture.
func TestCtxflowRule(t *testing.T) {
	linttest.Run(t, fixtureRoot+"ctxfx", dataflowConfig(), []lint.Rule{dataflow.Ctxflow})
}

func TestAtomicsRule(t *testing.T) {
	linttest.Run(t, fixtureRoot+"atomfx", dataflowConfig(), []lint.Rule{dataflow.Atomics})
}

func TestLocksRule(t *testing.T) {
	linttest.Run(t, fixtureRoot+"lockfx", dataflowConfig(), []lint.Rule{dataflow.Locks})
}

func TestResourceRule(t *testing.T) {
	linttest.Run(t, fixtureRoot+"resfx", dataflowConfig(), []lint.Rule{dataflow.Resource})
}

// TestDataflowRulesOutOfScope pins the scoping: under the default config
// (whose scopes point at the real repo packages) all four fixtures are
// silent no matter what their code does.
func TestDataflowRulesOutOfScope(t *testing.T) {
	pkgs, err := lint.Load("", []string{
		fixtureRoot + "ctxfx", fixtureRoot + "atomfx",
		fixtureRoot + "lockfx", fixtureRoot + "resfx",
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, lint.DefaultConfig(), dataflowRules) {
		t.Errorf("out-of-scope finding: %s", d)
	}
}

// TestDataflowJSONGolden pins the machine output for the dataflow rule
// names (ctxflow.*, atomics.*, locks.*, resource.*) the same way
// TestJSONGolden does for the AST rules.
func TestDataflowJSONGolden(t *testing.T) {
	pkgs, err := lint.Load("", []string{
		fixtureRoot + "ctxfx", fixtureRoot + "atomfx",
		fixtureRoot + "lockfx", fixtureRoot + "resfx",
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs, dataflowConfig(), dataflowRules)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	lint.Relativize(diags, root)
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "dataflowfx.golden.json")
	if os.Getenv("KDLINT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with KDLINT_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output differs from golden file %s:\ngot:\n%s\nwant:\n%s\n(regenerate with KDLINT_UPDATE_GOLDEN=1)", golden, buf.Bytes(), want)
	}
}

// TestJSONGolden pins the machine-readable output format end to end: load
// a fixture, run the driver's production rule set, relativize paths to the
// module root, and compare byte-for-byte with the committed golden file.
func TestJSONGolden(t *testing.T) {
	pkgs, err := lint.Load("", []string{fixtureRoot + "detfx"}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lint.DefaultConfig()
	cfg.Scopes["determinism"] = []string{fixtureRoot + "detfx"}
	diags := lint.Run(pkgs, cfg, driver.Rules())
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	lint.Relativize(diags, root)
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "detfx.golden.json")
	if os.Getenv("KDLINT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with KDLINT_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output differs from golden file %s:\ngot:\n%s\nwant:\n%s\n(regenerate with KDLINT_UPDATE_GOLDEN=1)", golden, buf.Bytes(), want)
	}
}
