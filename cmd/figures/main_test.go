package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcm/internal/figures"
)

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestFig7aASCII(t *testing.T) {
	out := runCapture(t, "-fig", "7a")
	if !strings.Contains(out, "Fig. 7(a)") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "tree failed %") {
		t.Errorf("missing tree column:\n%s", out)
	}
}

func TestFig7bCSV(t *testing.T) {
	out := runCapture(t, "-fig", "7b", "-format", "csv")
	if !strings.Contains(out, "# Fig. 7(b)") {
		t.Errorf("missing CSV comment title:\n%s", out)
	}
	if !strings.Contains(out, "N,log2 N") {
		t.Errorf("missing CSV header:\n%s", out)
	}
}

func TestScalabilityReducedSize(t *testing.T) {
	out := runCapture(t, "-fig", "scalability", "-bits", "10", "-pairs", "500", "-trials", "1")
	if !strings.Contains(out, "unscalable") {
		t.Errorf("missing verdicts:\n%s", out)
	}
}

func TestOutDirWritesFiles(t *testing.T) {
	dir := t.TempDir()
	out := runCapture(t, "-fig", "3", "-out", dir)
	if !strings.Contains(out, "wrote") {
		t.Errorf("no write confirmations:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // fig3 emits two tables
		t.Fatalf("wrote %d files, want 2", len(entries))
	}
	body, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Error("empty figure file")
	}
}

func TestOutDirCSV(t *testing.T) {
	dir := t.TempDir()
	runCapture(t, "-fig", "7a", "-out", dir, "-format", "csv")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".csv") {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
}

func TestUnknownFigureError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "99z"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestUnknownFormatError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "7a", "-format", "pdf"}, &sb); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestSlug(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Fig. 7(a) — failed paths", "fig-7-a-failed-paths"},
		{"ALL CAPS 123", "all-caps-123"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := slug(tt.in); got != tt.want {
			t.Errorf("slug(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	long := slug(strings.Repeat("abc ", 40))
	if len(long) > 48 {
		t.Errorf("slug not truncated: %d chars", len(long))
	}
}

func TestDotChainExport(t *testing.T) {
	dir := t.TempDir()
	out := runCapture(t, "-fig", "7a", "-dot", dir)
	if !strings.Contains(out, "fig5b_xor.dot") {
		t.Errorf("missing dot confirmation:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("wrote %d dot files, want 5", len(entries))
	}
	body, err := os.ReadFile(filepath.Join(dir, "fig4a_tree.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "digraph chain") {
		t.Errorf("not a dot file:\n%s", body)
	}
}

// TestAllFiguresSmoke renders every registered figure to a temp dir at
// reduced size, twice, and checks each produced non-empty, byte-identical
// output — the determinism contract the figure generators advertise
// ("pure given options and seed"), enforced figure by figure.
func TestAllFiguresSmoke(t *testing.T) {
	render := func(fig string) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		runCapture(t, "-fig", fig, "-bits", "8", "-pairs", "200", "-trials", "1", "-out", dir)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, e := range entries {
			body, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = body
		}
		return out
	}
	for _, fig := range figures.Names() {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			first := render(fig)
			if len(first) == 0 {
				t.Fatalf("%s produced no files", fig)
			}
			for name, body := range first {
				if len(body) == 0 {
					t.Errorf("%s: empty figure file %s", fig, name)
				}
			}
			second := render(fig)
			if len(second) != len(first) {
				t.Fatalf("%s: %d files on rerun, want %d", fig, len(second), len(first))
			}
			for name, body := range first {
				if !bytes.Equal(second[name], body) {
					t.Errorf("%s: %s not deterministic across reruns", fig, name)
				}
			}
		})
	}
}

// TestCPUProfileFlag: -cpuprofile writes a non-empty pprof file, and an
// unwritable path fails cleanly.
func TestCPUProfileFlag(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	runCapture(t, "-fig", "6b", "-bits", "8", "-pairs", "200", "-trials", "1", "-cpuprofile", prof)
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}
	var sb strings.Builder
	if err := run([]string{"-fig", "7b", "-cpuprofile", filepath.Join(dir, "no", "such", "dir.prof")}, &sb); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
}
