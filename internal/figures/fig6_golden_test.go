package figures

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFig6Golden locks the rendered Fig. 6(a) and 6(b) tables byte for
// byte at N=2^12. The simulated columns depend on the routing worker
// count (each worker draws its own pair stream), and the harness defaults
// that count to GOMAXPROCS, so the test pins GOMAXPROCS while it renders.
// Regenerate with: go test ./internal/figures -run Fig6Golden -update
func TestFig6Golden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opt := Options{Bits: 12, Pairs: 4000, Trials: 2, Seed: 1}
	var b bytes.Buffer
	for _, name := range []string{"6a", "6b"} {
		ts, err := Generate(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range ts {
			b.WriteString("# " + tb.Title() + "\n")
			b.WriteString(tb.CSV())
		}
	}
	path := filepath.Join("testdata", "fig6.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("Fig. 6 drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, b.Bytes(), want)
	}
}
