// Package driver is kdlint's command-line entry point, factored out of
// cmd/kdlint so its behavior — flag parsing, rule selection, output
// formats, and above all the exit-code contract — is testable in-process.
//
// Exit codes are part of the CI interface and deliberately split:
//
//	0  clean
//	1  findings (a dirty tree)
//	2  load, usage, or internal error (a broken analyzer)
//
// CI treats 1 as "fix the code" and 2 as "fix the linter"; conflating
// them would let an analyzer crash masquerade as a clean-up task.
package driver

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kdtune/internal/lint"
	"kdtune/internal/lint/arena"
	"kdtune/internal/lint/atomics"
	"kdtune/internal/lint/ctxflow"
	"kdtune/internal/lint/determinism"
	"kdtune/internal/lint/escapes"
	"kdtune/internal/lint/guard"
	"kdtune/internal/lint/hotpath"
	"kdtune/internal/lint/locks"
	"kdtune/internal/lint/resource"
	"kdtune/internal/lint/tunable"
)

// Rules returns every rule in the order the driver runs them.
func Rules() []lint.Rule {
	return []lint.Rule{
		determinism.Rule(),
		guard.Rule(),
		arena.Rule(),
		hotpath.Rule(),
		tunable.Rule(),
		ctxflow.Rule,
		atomics.Rule,
		locks.Rule,
		resource.Rule,
	}
}

// Main runs kdlint with argv (flags plus package patterns, without the
// program name), writing findings to stdout and errors to stderr, and
// returns the process exit code.
func Main(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	tests := fs.Bool("tests", false, "also lint _test.go files (loads test variants)")
	ruleList := fs.String("rules", "", "comma-separated rule families to run (default: all)")
	escapesMode := fs.Bool("escapes", false, "run the escape-analysis gate instead of the AST rules")
	baseline := fs.String("baseline", "lint/escapes.baseline", "escape baseline file (with -escapes)")
	update := fs.Bool("update", false, "rewrite the baseline from the current escape set (with -escapes)")
	hot := fs.String("hot", strings.Join(escapes.HotPackages, ","), "comma-separated hot packages to gate (with -escapes)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *escapesMode {
		return runEscapes(stdout, stderr, *baseline, *update, strings.Split(*hot, ","))
	}

	rules := Rules()
	if *ruleList != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(*ruleList, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var selected []lint.Rule
		for _, r := range rules {
			if want[r.Name] {
				selected = append(selected, r)
				delete(want, r.Name)
			}
		}
		if len(want) > 0 {
			var unknown []string
			for r := range want {
				unknown = append(unknown, r)
			}
			fmt.Fprintf(stderr, "kdlint: unknown rule(s) %s\n", strings.Join(unknown, ", "))
			return 2
		}
		rules = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := lint.DefaultConfig()
	cfg.IncludeTests = *tests
	pkgs, err := lint.Load("", patterns, cfg.IncludeTests)
	if err != nil {
		fmt.Fprintln(stderr, "kdlint:", err)
		return 2
	}
	diags := lint.Run(pkgs, cfg, rules)
	if cwd, err := os.Getwd(); err == nil {
		lint.Relativize(diags, cwd)
	}
	switch {
	case *sarifOut:
		docs := map[string]string{}
		for _, r := range Rules() {
			docs[r.Name] = r.Doc
		}
		if err := lint.WriteSARIF(stdout, diags, docs); err != nil {
			fmt.Fprintln(stderr, "kdlint:", err)
			return 2
		}
	case *jsonOut:
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "kdlint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func runEscapes(stdout, stderr io.Writer, baseline string, update bool, hot []string) int {
	esc, err := escapes.Collect(escapes.Options{Packages: hot})
	if err != nil {
		fmt.Fprintln(stderr, "kdlint:", err)
		return 2
	}
	if update {
		if err := escapes.WriteBaseline(baseline, esc); err != nil {
			fmt.Fprintln(stderr, "kdlint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "kdlint: baseline %s updated: %d escapes across %s\n", baseline, len(esc), strings.Join(hot, ", "))
		return 0
	}
	base, err := escapes.ReadBaseline(baseline)
	if err != nil {
		fmt.Fprintln(stderr, "kdlint:", err)
		return 2
	}
	news, stale := escapes.Diff(esc, base)
	for _, e := range news {
		fmt.Fprintf(stdout, "%s: new heap escape: %s (in %s, %s)\n", e.Pos, e.Msg, e.Func, e.Pkg)
	}
	for _, k := range stale {
		fmt.Fprintf(stdout, "kdlint: note: baseline entry no longer observed: %s (fold in with -escapes -update)\n", k)
	}
	if len(news) > 0 {
		fmt.Fprintf(stdout, "kdlint: %d new escape(s) not in %s; fix them or regenerate the baseline with -escapes -update\n", len(news), baseline)
		return 1
	}
	fmt.Fprintf(stdout, "kdlint: escape gate clean: %d baselined escapes, %d observed\n", len(base), len(esc))
	return 0
}
