// Package escapes implements the kdlint -escapes gate: it runs the
// compiler's escape analysis (go build -gcflags=-m) over the hot packages,
// extracts every heap-escaping allocation, and diffs the set against a
// committed baseline (lint/escapes.baseline). A new escape fails the gate —
// the traversal and build kernels' performance story depends on these
// allocations not creeping in — while a disappeared escape is only a
// suggestion to regenerate the baseline, so improving the code never breaks
// CI.
//
// Escapes are keyed "pkg :: func :: message" rather than by file:line, so
// unrelated edits that shift lines do not churn the baseline; only moving
// an allocation between functions or changing what escapes does.
package escapes

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// HotPackages are the packages whose allocations the cost model treats as
// per-ray or per-node costs; the gate holds their heap behavior to the
// committed baseline by default, and its own test gates the same list.
// internal/serve joined the list when the serving layer's logring, metrics,
// and admission fast paths became part of the steady-state request loop.
var HotPackages = []string{
	"kdtune/internal/kdtree",
	"kdtune/internal/sah",
	"kdtune/internal/render",
	"kdtune/internal/vecmath",
	"kdtune/internal/serve",
}

// Options configures one gate run.
type Options struct {
	// Dir is the working directory for the go tool ("" for the process's).
	Dir string
	// Packages are the hot packages whose escapes are gated.
	Packages []string
	// Overlay is an optional go build -overlay JSON file; tests use it to
	// prove the gate fails on an injected escape without touching the tree.
	Overlay string
}

// Escape is one heap-escaping allocation reported by the compiler.
type Escape struct {
	Pkg  string // import path of the containing package
	Func string // enclosing function or method name ("?" when unresolvable)
	Msg  string // compiler message, e.g. "moved to heap: b"
	Pos  string // file:line:col, for display only (not part of the key)
}

// Key is the line-drift-robust identity an escape is baselined under.
func (e Escape) Key() string {
	return e.Pkg + " :: " + e.Func + " :: " + e.Msg
}

// diagLine matches a compiler diagnostic "file.go:line:col: message".
var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// Collect builds the packages with -gcflags=-m and returns every escape
// diagnostic, sorted by key. Build caching makes repeat runs cheap: the
// compiler replays cached diagnostics instead of recompiling.
func Collect(opts Options) ([]Escape, error) {
	if len(opts.Packages) == 0 {
		return nil, fmt.Errorf("escapes: no packages to gate")
	}
	overlayArgs := []string{}
	if opts.Overlay != "" {
		overlayArgs = append(overlayArgs, "-overlay", opts.Overlay)
	}

	// Resolve each package's files so diagnostics can be attributed to
	// packages and enclosing functions.
	fileToPkg := map[string]string{}
	listArgs := append(append([]string{"list", "-json"}, overlayArgs...), opts.Packages...)
	out, err := runGo(opts.Dir, listArgs)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct {
			Dir        string
			ImportPath string
			GoFiles    []string
		}
		if err := dec.Decode(&lp); err != nil {
			break
		}
		for _, f := range lp.GoFiles {
			fileToPkg[filepath.Join(lp.Dir, f)] = lp.ImportPath
		}
	}

	// -gcflags with a bare value applies exactly to the packages named on
	// the command line, which is the gate's scope.
	buildArgs := append(append([]string{"build", "-gcflags=-m"}, overlayArgs...), opts.Packages...)
	cmd := exec.Command("go", buildArgs...)
	cmd.Dir = opts.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escapes: go build: %v\n%s", err, stderr.String())
	}

	replace := map[string]string{}
	if opts.Overlay != "" {
		if err := readOverlay(opts.Overlay, replace); err != nil {
			return nil, err
		}
	}

	base := opts.Dir
	if base == "" {
		if base, err = os.Getwd(); err != nil {
			return nil, err
		}
	}
	funcs := newFuncIndex(replace)
	var escapes []Escape
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.HasPrefix(msg, "moved to heap:") && !strings.HasSuffix(msg, "escapes to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(base, file)
		}
		pkg, ok := fileToPkg[file]
		if !ok {
			continue // diagnostic from a dependency outside the gate
		}
		line := atoi(m[2])
		escapes = append(escapes, Escape{
			Pkg:  pkg,
			Func: funcs.enclosing(file, line),
			Msg:  msg,
			Pos:  fmt.Sprintf("%s:%s:%s", m[1], m[2], m[3]),
		})
	}
	sort.Slice(escapes, func(i, j int) bool {
		if ki, kj := escapes[i].Key(), escapes[j].Key(); ki != kj {
			return ki < kj
		}
		return escapes[i].Pos < escapes[j].Pos
	})
	return escapes, nil
}

// Diff splits the collected escapes into those missing from the baseline
// (gate failures) and baseline keys no longer observed (stale entries, an
// improvement to fold in with -update).
func Diff(escapes []Escape, baseline map[string]bool) (news []Escape, stale []string) {
	seen := map[string]bool{}
	for _, e := range escapes {
		seen[e.Key()] = true
		if !baseline[e.Key()] {
			news = append(news, e)
		}
	}
	for k := range baseline {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return news, stale
}

// ReadBaseline loads a baseline file: one key per line, '#' comments and
// blank lines ignored. A missing file is an empty baseline, so the gate
// can bootstrap with -update.
func ReadBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, err
	}
	base := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		base[line] = true
	}
	return base, nil
}

// WriteBaseline writes the sorted, deduplicated keys of escapes to path.
func WriteBaseline(path string, escapes []Escape) error {
	keys := make([]string, 0, len(escapes))
	seen := map[string]bool{}
	for _, e := range escapes {
		if !seen[e.Key()] {
			seen[e.Key()] = true
			keys = append(keys, e.Key())
		}
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("# kdlint escape-analysis baseline.\n")
	buf.WriteString("# One entry per heap-escaping allocation in the gated hot packages,\n")
	buf.WriteString("# keyed \"pkg :: func :: compiler message\" (line numbers excluded so\n")
	buf.WriteString("# unrelated edits do not churn this file).\n")
	buf.WriteString("# Regenerate with: go run ./cmd/kdlint -escapes -update\n")
	for _, k := range keys {
		buf.WriteString(k)
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// funcIndex lazily parses flagged files to resolve the function enclosing a
// diagnostic line, honoring overlay replacements.
type funcIndex struct {
	replace map[string]string // overlay: original path -> replacement path
	files   map[string][]funcSpan
	fset    *token.FileSet
}

type funcSpan struct {
	name     string
	from, to int // line range, inclusive
}

func newFuncIndex(replace map[string]string) *funcIndex {
	return &funcIndex{replace: replace, files: map[string][]funcSpan{}, fset: token.NewFileSet()}
}

func (fi *funcIndex) enclosing(file string, line int) string {
	spans, ok := fi.files[file]
	if !ok {
		spans = fi.parse(file)
		fi.files[file] = spans
	}
	for _, s := range spans {
		if s.from <= line && line <= s.to {
			return s.name
		}
	}
	return "?"
}

func (fi *funcIndex) parse(file string) []funcSpan {
	src := file
	if r, ok := fi.replace[file]; ok {
		src = r
	}
	f, err := parser.ParseFile(fi.fset, src, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil
	}
	var spans []funcSpan
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			name = recvName(fd.Recv.List[0].Type) + "." + name
		}
		spans = append(spans, funcSpan{
			name: name,
			from: fi.fset.Position(fd.Pos()).Line,
			to:   fi.fset.Position(fd.End()).Line,
		})
	}
	return spans
}

// recvName renders a receiver type expression as its base type name.
func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// readOverlay parses a go build overlay file into replace.
func readOverlay(path string, replace map[string]string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("escapes: reading overlay: %v", err)
	}
	var ov struct {
		Replace map[string]string
	}
	if err := json.Unmarshal(data, &ov); err != nil {
		return fmt.Errorf("escapes: parsing overlay: %v", err)
	}
	for k, v := range ov.Replace {
		replace[k] = v
	}
	return nil
}

func runGo(dir string, args []string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("escapes: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
