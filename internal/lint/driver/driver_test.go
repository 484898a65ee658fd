package driver_test

import (
	"bytes"
	"strings"
	"testing"

	"kdtune/internal/lint/driver"
)

const fixtureRoot = "kdtune/internal/lint/testdata/src/"

// run invokes the driver in-process and returns (exit code, stdout, stderr).
func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := driver.Main(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCleanIsZero: a fixture outside the rule's scope produces no
// findings, and a clean run exits 0 with empty output.
func TestExitCleanIsZero(t *testing.T) {
	code, out, errb := run("-rules", "determinism", fixtureRoot+"detfx")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb)
	}
	if out != "" {
		t.Errorf("clean run wrote to stdout: %q", out)
	}
}

// TestExitFindingsIsOne: the hotpath fixture has findings under the
// default config, so the run reports them and exits 1 — not 2, which is
// reserved for a broken analyzer.
func TestExitFindingsIsOne(t *testing.T) {
	code, out, _ := run("-rules", "hotpath", fixtureRoot+"hotfx")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if out == "" {
		t.Error("findings run wrote nothing to stdout")
	}
}

// TestExitLoadErrorIsTwo: an unloadable pattern is an analyzer-side
// failure and must not masquerade as findings (1) or a clean tree (0).
func TestExitLoadErrorIsTwo(t *testing.T) {
	code, _, errb := run("./no-such-package")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if errb == "" {
		t.Error("load error produced no stderr diagnostics")
	}
}

// TestExitUnknownRuleIsTwo: a typo in -rules is a usage error, not a
// clean run.
func TestExitUnknownRuleIsTwo(t *testing.T) {
	code, _, errb := run("-rules", "nosuchrule", fixtureRoot+"detfx")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "nosuchrule") {
		t.Errorf("stderr does not name the unknown rule: %q", errb)
	}
}

// TestRulesListsDataflowFamilies pins that the driver registers the
// CFG/dataflow rules; dropping one from Rules() would silently disable
// its fixtures' coverage in CI.
func TestRulesListsDataflowFamilies(t *testing.T) {
	have := map[string]bool{}
	for _, r := range driver.Rules() {
		have[r.Name] = true
	}
	for _, name := range []string{"ctxflow", "atomics", "locks", "resource"} {
		if !have[name] {
			t.Errorf("driver.Rules() is missing the %s rule", name)
		}
	}
}
