package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMarkerGrammar pins the framework-level diagnostics: unknown
// directives, misplaced markers, reason-less allows, and stale allows
// each produce a file:line finding.
func TestMarkerGrammar(t *testing.T) {
	prog, err := Load(".", "./testdata/src/markersfix")
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Analyze()

	expect := map[int]string{
		8:  "unknown directive //repro:frobnicate",
		12: "//repro:hotpath must be on a function's doc comment or before the package clause",
		16: "//repro:allow requires a reason",
		20: "stale //repro:allow",
	}
	var fixtureDiags []Diagnostic
	for _, d := range res.Diags {
		if strings.Contains(d.Pos.Filename, "markersfix") {
			fixtureDiags = append(fixtureDiags, d)
		}
	}
	if len(fixtureDiags) != len(expect) {
		t.Errorf("got %d diagnostics, want %d: %v", len(fixtureDiags), len(expect), fixtureDiags)
	}
	for _, d := range fixtureDiags {
		want, ok := expect[d.Pos.Line]
		if !ok {
			t.Errorf("unexpected diagnostic at line %d: %s", d.Pos.Line, d.Message)
			continue
		}
		if d.Analyzer != "markers" {
			t.Errorf("line %d: analyzer = %q, want markers", d.Pos.Line, d.Analyzer)
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("line %d: message %q does not contain %q", d.Pos.Line, d.Message, want)
		}
		delete(expect, d.Pos.Line)
	}
	for line, msg := range expect {
		t.Errorf("missing diagnostic at line %d (%s)", line, msg)
	}
	if len(res.Allowances) != 0 {
		t.Errorf("stale allow must not appear as a used allowance: %v", res.Allowances)
	}
}

// TestLoadErrors pins loader failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "./no/such/dir"); err == nil {
		t.Error("expected error for missing package dir")
	}
	if _, err := Load("/", "./..."); err == nil {
		t.Error("expected error outside any module")
	}
}

// A "/..." walk stops at any subdirectory with its own go.mod, the go
// list rule: a nested module is a separate build, not part of this one.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, content := range map[string]string{
		"go.mod":            "module example.com/outer\n",
		"a/a.go":            "package a\n",
		"nested/go.mod":     "module example.com/nested\n",
		"nested/b.go":       "package nested\n",
		"nested/sub/sub.go": "package sub\n",
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for path := range prog.byPath {
		got = append(got, path)
	}
	if len(got) != 1 || got[0] != "example.com/outer/a" {
		t.Errorf("loaded %v, want only example.com/outer/a", got)
	}
}
