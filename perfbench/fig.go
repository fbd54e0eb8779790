package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"rcm/exp"
	"rcm/internal/core"
	"rcm/internal/dht"
	"rcm/internal/figures"
	"rcm/internal/sim"
	"rcm/internal/table"
)

// figRender regenerates Fig. 6(a), 6(b), 7(a) and 7(b) at the paper's
// operating point through figures.Generate. Graph routing in internal/sim
// does nearly all of the work; overlay construction and the analytic
// closed forms are small.
type figRender struct {
	o options
}

var renderedFigs = []string{"6a", "6b", "7a", "7b"}

// fig6Protocols are the overlays Fig. 6 simulates: 6(a)'s three series,
// then 6(b)'s ring.
var fig6Protocols = []string{"plaxton", "can", "kademlia", "chord"}

// fig7bBits mirrors the system sizes Fig. 7(b) evaluates.
var fig7bBits = []int{10, 14, 17, 20, 24, 27, 30, 34, 40, 50, 70, 100}

// fig7bQ is Fig. 7(b)'s fixed failure probability.
const fig7bQ = 0.1

// seedStride is the runner's per-q seed step (exp.WithSeed).
const seedStride = 0x9e37

// figDigest pins the deterministic part of the rendered figures at the full
// size: the analytic columns of 6(a)/6(b) and the whole of 7(a)/7(b). The
// simulated columns depend on the CPU count (it fixes the sampling plan), so
// they are checked against the analytic model instead.
const figDigest = "5ab6fa30a3b2247b8dc67558d8dd036d2130a0bd3c7d186ba10f9f33f90cdfe0"

func (f *figRender) transport() string { return "none (graph routing)" }

func (f *figRender) overlayConfig() dht.Config {
	return dht.Config{Bits: f.o.size.figBits, Seed: f.o.seed}
}

// setup builds the four Fig. 6 overlays, the construction the render
// repeats inside the runner; the render has no other input to prepare.
func (f *figRender) setup(tr *tracer, parent, req int) error {
	for _, p := range fig6Protocols {
		sp := tr.start("dht.New", parent, req)
		_, err := dht.New(p, f.overlayConfig())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *figRender) pass(tr *tracer, parent, req int) (passStats, error) {
	opt := figures.Options{Bits: f.o.size.figBits, Pairs: f.o.size.figPairs, Trials: f.o.size.figTrials, Seed: f.o.seed}
	out := make(map[string][]*table.Table, len(renderedFigs))
	t0 := time.Now()
	for _, name := range renderedFigs {
		sp := tr.start("figures.Generate", parent, req)
		ts, err := figures.Generate(name, opt)
		tr.end(sp)
		if err != nil {
			return passStats{}, fmt.Errorf("figure %s: %w", name, err)
		}
		out[name] = ts
	}
	wall := time.Since(t0)

	pairs := len(fig6Protocols) * len(exp.PaperQGrid()) * f.o.size.figPairs * f.o.size.figTrials
	st := passStats{wall: wall, lookups: pairs, started: pairs}
	delivered, err := checkFigures(out, f.o)
	st.ok = int(float64(pairs)*delivered + 0.5)
	return st, err
}

// checkFigures applies the tolerances internal/figures' tests state to the
// simulated columns, pins the deterministic columns at the default seed,
// and returns the mean simulated routability over the Fig. 6 cells.
func checkFigures(out map[string][]*table.Table, o options) (float64, error) {
	h := sha256.New()
	var sumR float64
	var cells int
	for _, name := range []string{"6a", "6b"} {
		for _, tb := range out[name] {
			if tb.NumRows() != len(exp.PaperQGrid()) {
				return 0, wrong("%s: %d rows, want %d", tb.Title(), tb.NumRows(), len(exp.PaperQGrid()))
			}
			var first, last float64
			for r := 0; r < tb.NumRows(); r++ {
				q, a, s, err := fig6Row(tb, r)
				if err != nil {
					return 0, err
				}
				if err := fig6Tolerance(name, tb.Title(), q, a, s); err != nil {
					return 0, err
				}
				fmt.Fprintf(h, "%s|%v|%v\n", tb.Title(), q, a)
				sumR += 1 - s/100
				cells++
				if r == 0 {
					first = s
				}
				last = s
			}
			if name == "6a" && (first != 0 || last < 50) {
				return 0, wrong("%s: simulated failed paths %v at q=0 and %v at q=0.9", tb.Title(), first, last)
			}
		}
	}
	for _, name := range []string{"7a", "7b"} {
		for _, tb := range out[name] {
			fmt.Fprint(h, tb.CSV())
		}
	}
	if o.size.pinned && o.seed == defaultSeed {
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != figDigest {
			return 0, wrong("figure digest %s, pinned %s", got, figDigest)
		}
	}
	return sumR / float64(cells), nil
}

// fig6Tolerance is the analytic-vs-simulated agreement the figure tests
// require: within 12 points everywhere for 6(a); for the ring, within 6
// points up to q = 20% and the analytic curve an upper bound (4 points of
// slack) for 40% ≤ q ≤ 80%.
func fig6Tolerance(fig, title string, q, a, s float64) error {
	switch {
	case fig == "6a" && (a-s > 12 || a-s < -12):
		return wrong("%s q=%v%%: analytic %v vs simulated %v beyond 12 points", title, q, a, s)
	case fig == "6b" && q <= 20 && (a-s > 6 || a-s < -6):
		return wrong("%s q=%v%%: analytic %v vs simulated %v beyond 6 points", title, q, a, s)
	case fig == "6b" && q >= 40 && q <= 80 && a < s-4:
		return wrong("%s q=%v%%: analytic %v is not an upper bound of simulated %v", title, q, a, s)
	}
	return nil
}

// fig6Row parses row r's q, analytic and simulated percentages.
func fig6Row(tb *table.Table, r int) (q, a, s float64, err error) {
	var v [3]float64
	for i, col := range []string{"q %", "analytic failed %", "simulated failed %"} {
		if v[i], err = strconv.ParseFloat(cellOf(tb, r, col), 64); err != nil {
			return 0, 0, 0, wrong("%s row %d column %q: %v", tb.Title(), r, col, err)
		}
	}
	return v[0], v[1], v[2], nil
}

// cellOf returns the named column of row r ("" when absent).
func cellOf(tb *table.Table, r int, col string) string {
	for i, c := range tb.Columns() {
		if c == col {
			return tb.Row(r)[i]
		}
	}
	return ""
}

// layers decomposes the render into its layer calls and runs them one at
// a time: each Fig. 6 overlay build, each static-resilience cell with one
// routing worker, and each analytic cell of the four figures through a
// fresh memoizing evaluator per figure, as the runner does. The serial sum
// over the parallel render's wall time and workers is the runner's
// parallel efficiency.
func (f *figRender) layers(tr *tracer, plain []passStats) (map[string]float64, error) {
	root := tr.start("probe", 0, 0)
	defer tr.end(root)
	qs := exp.PaperQGrid()
	var pairs, hops float64
	for _, name := range fig6Protocols {
		sp := tr.start("dht.New", root, 0)
		p, err := dht.New(name, f.overlayConfig())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for qi, q := range qs {
			sp := tr.startMem("sim.MeasureStaticResilience", root, 0)
			r, err := sim.MeasureStaticResilience(p, q, sim.Options{
				Pairs:   f.o.size.figPairs,
				Trials:  f.o.size.figTrials,
				Workers: 1,
				Seed:    f.o.seed + uint64(qi)*seedStride,
			})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			pairs += float64(r.Pairs)
			if r.Routability > 0 { // MeanHops is NaN when nothing routed
				hops += r.MeanHops * r.Routability * float64(r.Pairs)
			}
		}
	}

	type cell struct {
		g    exp.Geometry
		bits int
		q    float64
	}
	var figCells [][]cell
	var fig6 []cell
	for _, name := range fig6Protocols {
		spec, err := exp.SpecFor(name, exp.Config{})
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			fig6 = append(fig6, cell{spec.Geometry, f.o.size.figBits, q})
		}
	}
	var fig7a, fig7b []cell
	for _, spec := range exp.AllSpecs() {
		for _, q := range qs {
			fig7a = append(fig7a, cell{spec.Geometry, 100, q})
		}
		for _, d := range fig7bBits {
			fig7b = append(fig7b, cell{spec.Geometry, d, fig7bQ})
		}
	}
	figCells = append(figCells, fig6, fig7a, fig7b)
	for _, cells := range figCells {
		ev := core.NewEvaluator()
		for _, c := range cells {
			sp := tr.start("core.Evaluator", root, 0)
			_, err := ev.Routability(c.g, c.bits, c.q)
			if err == nil {
				_, err = ev.ExpectedReach(c.g, c.bits, c.q)
			}
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}

	simD, simMallocs, _, _ := tr.total("sim.MeasureStaticResilience")
	coreD, _, _, coreN := tr.total("core.Evaluator")
	var buildD time.Duration
	for _, s := range tr.named("dht.New") {
		if s.Parent == root {
			buildD += s.dur()
		}
	}
	serial := (simD + coreD + buildD).Seconds()
	render := median(passWalls(plain))
	return map[string]float64{
		"exp.parallel_eff":      ratio(serial, render*float64(runtime.NumCPU())), // the runner's default workers
		"dht.build_ms":          tr.meanMS("dht.New"),
		"sim.route_ns_per_pair": ratio(float64(simD.Nanoseconds()), pairs),
		"sim.allocs_per_pair":   ratio(float64(simMallocs), pairs),
		"sim.hops_per_pair":     ratio(hops, pairs),
		"core.eval_us":          ratio(float64(coreD.Nanoseconds())/1e3, float64(coreN)),
	}, nil
}
