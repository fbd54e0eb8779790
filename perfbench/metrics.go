package main

import (
	"math"
	"sort"
)

// def names one reported metric and its unit. The lists below are the
// benchmark's whole vocabulary: an untraced run reports every end-to-end
// metric and a traced run every per-layer metric, on every workload, and
// BENCHMARK.json lists the same names (the self-tests hold the two in step).
type def struct {
	name, unit string
	// count marks a metric that is a pure function of (workload, seed,
	// size): two runs with the same seed must report it identically. The
	// live node counters that an RTO firing early can change (timeouts,
	// failovers, duplicate requests and the messages they add) are counts
	// in unit only: they depend on wall-clock timing.
	count bool
}

// endToEnd are the metrics a user of each path sees. Every workload fills
// every one; README.md gives the per-workload meaning.
var endToEnd = []def{
	{name: "setup_s", unit: "s"},
	{name: "pass_s", unit: "s"},
	{name: "lookups_per_s", unit: "1/s"},
	{name: "lookup_p99_us", unit: "us"},
	{name: "lookup_success_frac", unit: "ratio"},
	{name: "max_rss_mb", unit: "MB"},
}

// perLayer are the traced run's metrics, grouped by the module whose
// public functions the spans wrap. A layer a workload does not call
// reports 0: it did no work there.
var perLayer = []def{
	{name: "exp.parallel_eff", unit: "ratio"},
	{name: "dht.build_ms", unit: "ms"},
	{name: "sim.route_ns_per_pair", unit: "ns"},
	{name: "sim.allocs_per_pair", unit: "count"},
	{name: "sim.hops_per_pair", unit: "count", count: true},
	{name: "core.eval_us", unit: "us"},
	{name: "eventsim.events_per_s", unit: "1/s"},
	{name: "eventsim.allocs_per_event", unit: "count"},
	{name: "eventsim.program_ms", unit: "ms"},
	{name: "eventsim.events_per_lookup", unit: "count", count: true},
	{name: "eventsim.lookup_msgs_per_lookup", unit: "count", count: true},
	{name: "eventsim.maint_msgs_per_lookup", unit: "count", count: true},
	{name: "eventsim.timeouts_per_lookup", unit: "count", count: true},
	{name: "eventsim.serial_events_per_s", unit: "1/s"},
	{name: "eventsim.shard_speedup", unit: "ratio"},
	{name: "node.allocs_per_lookup", unit: "count"},
	{name: "node.bytes_per_lookup", unit: "B"},
	{name: "node.us_per_hop", unit: "us"},
	{name: "node.msgs_per_lookup", unit: "count"},
	{name: "node.hops_per_lookup", unit: "count", count: true},
	{name: "node.timeouts_per_lookup", unit: "count"},
	{name: "node.failovers_per_lookup", unit: "count"},
	{name: "node.dup_reqs", unit: "count"},
	{name: "node.shed", unit: "count", count: true},
	{name: "node.mem_pkt_ns.small", unit: "ns"},
	{name: "node.mem_pkt_ns.max", unit: "ns"},
	{name: "node.udp_pkt_ns.small", unit: "ns"},
	{name: "node.udp_pkt_ns.max", unit: "ns"},
	{name: "cluster.boot_ms", unit: "ms"},
	{name: "cluster.retained_mb", unit: "MB"},
	{name: "process.cpu_util", unit: "ratio"},
	{name: "process.gc_cpu_frac", unit: "ratio"},
	{name: "process.steal_frac", unit: "ratio"},
	{name: "trace.overhead_s", unit: "s"},
}

// metric is one reported value, in the result line's encoding.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (mean of the two middles), 0 when empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the linearly interpolated q-quantile of xs, 0 when
// empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
