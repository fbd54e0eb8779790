package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rcm/internal/table"
)

// tiny runs every workload in well under a second per pass.
var tiny = size{
	figBits: 10, figPairs: 2000, figTrials: 2,
	churnBits: 9, churnDuration: 1, churnRate: 500,
	liveBits: 7, udpDuration: 4, udpRate: 100,
	failoverDuration: 4, failoverRate: 100, failoverScheds: 2,
	pktReps: 200,
}

func tinyRun(t *testing.T, name string, seed uint64, traced bool) result {
	t.Helper()
	o := options{seed: seed, seconds: 0.01, traced: traced, size: tiny, log: io.Discard}
	w, err := newWorkload(name, o)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := measure(w, o)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	return res
}

// TestEveryMetricReported: at a tiny size, every workload reports every
// metric of its kind of run, with its unit and a finite value.
func TestEveryMetricReported(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, name, 3, traced)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := defsFor(traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", name, traced, d.name)
				case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v %q", name, traced, d.name, m.Value, m.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestCountsRepeat: every count metric is identical across two runs with
// the same seed.
func TestCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		a, b := tinyRun(t, name, 5, true), tinyRun(t, name, 5, true)
		for _, d := range perLayer {
			if d.count && a.Metrics[d.name] != b.Metrics[d.name] {
				t.Errorf("%s: count %s differs across runs: %v vs %v", name, d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the program: the same
// workloads and the same metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchmarked, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, benchmarked)
	}
	for _, c := range []struct {
		kind string
		doc  []struct{ Name, Unit string }
		defs []def
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.kind, len(c.doc), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.doc[i].Name != d.name || c.doc[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.kind, i, c.doc[i].Name, c.doc[i].Unit, d.name, d.unit)
			}
		}
	}
}

// wrongPass is a workload whose second pass produces a wrong output.
type wrongPass struct{ n int }

func (w *wrongPass) transport() string             { return "none" }
func (w *wrongPass) setup(*tracer, int, int) error { return nil }
func (w *wrongPass) layers(*tracer, []passStats) (map[string]float64, error) {
	return nil, nil
}

func (w *wrongPass) pass(*tracer, int, int) (passStats, error) {
	w.n++
	st := passStats{wall: time.Millisecond, lookups: 10, started: 10, ok: 10}
	if w.n == 2 {
		return st, wrong("pass %d", w.n)
	}
	return st, nil
}

// TestWrongOutputFailsRun: a wrong output ends the run with an error,
// counting the failing pass's lookups as failed.
func TestWrongOutputFailsRun(t *testing.T) {
	res, _, err := measure(&wrongPass{}, options{seconds: 1, size: tiny, log: io.Discard})
	if !errors.Is(err, errWrong) {
		t.Fatalf("err = %v, want a wrong-output error", err)
	}
	if res.Attempted != 20 || res.Failed != 10 {
		t.Errorf("attempted %d failed %d, want 20 and 10", res.Attempted, res.Failed)
	}
}

// TestFigureToleranceRejects: a simulated column beyond the figure tests'
// tolerance fails the check.
func TestFigureToleranceRejects(t *testing.T) {
	tb := table.New("t", "q %", "analytic failed %", "simulated failed %")
	for i := 0; i < 19; i++ {
		tb.AddRow(table.I(5*i), "10", "30")
	}
	if _, err := checkFigures(map[string][]*table.Table{"6a": {tb}}, options{size: tiny}); !errors.Is(err, errWrong) {
		t.Errorf("checkFigures = %v, want a wrong-output error", err)
	}
}

// TestUsageErrors: bad flags and unknown workloads exit 2 without a
// result line.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig-render", "--trace", "2"},
		{"--workload", "fig-render", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || strings.Contains(out.String(), "correct") {
			t.Errorf("run(%v) = %d, stdout %q", args, code, out.String())
		}
	}
}
