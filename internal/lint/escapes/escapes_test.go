package escapes

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestGateCleanOnTree pins the committed baseline: the tree as checked in
// must pass its own escape gate, exactly as the CI lint job runs it.
func TestGateCleanOnTree(t *testing.T) {
	root := moduleRoot(t)
	esc, err := Collect(Options{Dir: root, Packages: HotPackages})
	if err != nil {
		t.Fatal(err)
	}
	if len(esc) == 0 {
		t.Fatal("collected no escapes; the -m plumbing is broken (the hot packages are known to have baselined escapes)")
	}
	base, err := ReadBaseline(filepath.Join(root, "lint", "escapes.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("baseline is empty; regenerate with go run ./cmd/kdlint -escapes -update")
	}
	news, stale := Diff(esc, base)
	for _, e := range news {
		t.Errorf("escape not in committed baseline: %s (%s)", e.Key(), e.Pos)
	}
	for _, k := range stale {
		t.Logf("stale baseline entry (improvement; fold in with -escapes -update): %s", k)
	}
}

// TestGateFailsOnInjectedEscape is the acceptance test for the gate: a
// deliberate heap escape injected into internal/kdtree via a build overlay
// (so the tree itself is untouched) must surface as a new escape against
// the committed baseline, attributed to the right package and function.
func TestGateFailsOnInjectedEscape(t *testing.T) {
	root := moduleRoot(t)
	tmp := t.TempDir()

	injected := filepath.Join(tmp, "zz_injected_escape.go")
	src := `package kdtree

// leakyBox exists only in the overlay of the escape-gate acceptance test:
// returning the address of a local forces it to the heap.
func leakyBox() *[64]float64 {
	var b [64]float64
	b[0] = 1
	return &b
}
`
	if err := os.WriteFile(injected, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(tmp, "overlay.json")
	ov := map[string]map[string]string{
		"Replace": {
			filepath.Join(root, "internal", "kdtree", "zz_injected_escape.go"): injected,
		},
	}
	data, err := json.Marshal(ov)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, data, 0o644); err != nil {
		t.Fatal(err)
	}

	esc, err := Collect(Options{Dir: root, Packages: []string{"kdtune/internal/kdtree"}, Overlay: overlay})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(filepath.Join(root, "lint", "escapes.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	news, _ := Diff(esc, base)
	want := "kdtune/internal/kdtree :: leakyBox :: moved to heap: b"
	found := false
	for _, e := range news {
		if e.Key() == want {
			found = true
		} else {
			t.Errorf("unexpected extra new escape: %s (%s)", e.Key(), e.Pos)
		}
	}
	if !found {
		t.Fatalf("gate did not flag the injected escape %q; new escapes: %v", want, news)
	}
}
