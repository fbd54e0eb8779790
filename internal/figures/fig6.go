package figures

import (
	"context"
	"rcm/exp"
	"rcm/internal/table"
)

func init() {
	register("6a", Fig6a)
	register("6b", Fig6b)
}

// fig6Series is one simulated protocol of Fig. 6 and its table title.
type fig6Series struct {
	protocol string
	title    string
}

// fig6Tables computes every series' full q-grid — analytic failed-path
// percentage from the RCM model against the simulated percentage from the
// static-resilience harness — as a single experiment plan, so one series'
// overlay build overlaps another's routing, then splits the rows back out
// into one table per series.
//
// Note: delegating to the runner unified the per-q measurement seeds on
// the sim.Sweep schedule (Seed + i·0x9e37); the pre-runner generator used
// Seed + i·7919, so simulated columns differ from older recorded output by
// sampling noise (well inside the trial stderr).
func fig6Tables(series []fig6Series, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	specs := make([]exp.Spec, len(series))
	for i, s := range series {
		spec, err := exp.SpecFor(s.protocol, exp.Config{})
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	qs := exp.PaperQGrid()
	rows, err := exp.Run(context.Background(), exp.Plan{
		Name:  "fig6",
		Specs: specs,
		Bits:  []int{opt.Bits},
		Qs:    qs,
	},
		exp.WithModes(exp.ModeAnalytic, exp.ModeSim),
		exp.WithPairs(opt.Pairs), exp.WithTrials(opt.Trials),
		exp.WithSeed(opt.Seed),
	)
	if err != nil {
		return nil, err
	}
	out := make([]*table.Table, len(series))
	for i, s := range series {
		t := table.New(s.title+", N=2^"+table.I(opt.Bits), "q %", "analytic failed %", "simulated failed %", "stderr %", "mean hops")
		// Plan rows are spec-major: series i owns the i-th run of len(qs).
		for _, r := range rows[i*len(qs) : (i+1)*len(qs)] {
			t.AddRow(
				table.Pct(r.Q, 0),
				table.F(r.AnalyticFailedPct, 2),
				table.F(r.SimFailedPct, 2),
				table.F(100*r.SimStdErr, 2),
				table.F(r.SimMeanHops, 2),
			)
		}
		out[i] = t
	}
	return out, nil
}

// Fig6a reproduces Fig. 6(a): percentage of failed paths vs node failure
// probability at N = 2^Bits for the tree, hypercube and XOR geometries,
// analysis against simulation. The paper overlays Gummadi et al.'s
// simulation data; here the simulation is regenerated from scratch by the
// static-resilience harness (see DESIGN.md §5, substitution 1).
func Fig6a(opt Options) ([]*table.Table, error) {
	return fig6Tables([]fig6Series{
		{"plaxton", "Fig. 6(a) — Tree (Plaxton) failed paths, analysis vs simulation"},
		{"can", "Fig. 6(a) — Hypercube (CAN) failed paths, analysis vs simulation"},
		{"kademlia", "Fig. 6(a) — XOR (Kademlia) failed paths, analysis vs simulation"},
	}, opt)
}

// Fig6b reproduces Fig. 6(b): the ring (Chord) geometry, where the analytic
// expression is a lower bound on routability — the analytic failed-path
// column upper-bounds the simulated one, tightly below q ≈ 20%.
func Fig6b(opt Options) ([]*table.Table, error) {
	return fig6Tables([]fig6Series{
		{"chord", "Fig. 6(b) — Ring (Chord) failed paths, analysis (upper bound) vs simulation"},
	}, opt)
}
