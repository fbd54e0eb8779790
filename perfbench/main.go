// Command perfbench is the repository benchmark. Each invocation runs one
// workload in its own process and prints every metric by name, value and
// unit, then one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads reach the paper's routability result along the three paths
// a user takes: a rendered figure (fig-render), a message-level event run
// (sim-churn) and a live cluster replay (live-udp, live-failover). An
// untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) wraps every call into a layer in a span and reports the
// per-layer metrics derived from the spans. Every pass's output is checked;
// a wrong output prints "correct": false with no metrics and exits 1.
//
// run.sh builds this program from the surrounding checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchmarked are the workloads BENCHMARK.json lists, in its order.
var benchmarked = []string{"fig-render", "sim-churn", "live-failover"}

// workloadNames adds live-udp, which runs and checks like the others but
// is left out of BENCHMARK.json: its times are set by loopback sockets and
// goroutine wake-ups on the shared host's two vCPUs, and they spread past
// every bound the benchmark may set (README.md).
var workloadNames = append(slices.Clone(benchmarked), "live-udp")

// newWorkload returns the named workload at size o.size.
func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "fig-render":
		return &figRender{o: o}, nil
	case "sim-churn":
		return &simChurn{o: o}, nil
	case "live-udp":
		return newLive(o, false), nil
	case "live-failover":
		return newLive(o, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// options is one run's configuration.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	size     size
	traceDir string    // where a traced run writes its spans; "" skips writing
	log      io.Writer // receives a progress line per pass
}

// size scales every workload. full is what the benchmark measures; the
// self-tests run tiny.
type size struct {
	figBits, figPairs, figTrials int
	churnBits                    int
	churnDuration, churnRate     float64
	liveBits                     int
	udpDuration, udpRate         float64
	failoverDuration             float64
	failoverRate                 float64
	failoverScheds               int // failure patterns per live-failover pass
	pktReps                      int
	// pinned compares the default seed's outputs with their pinned
	// digests; the pins hold only at the full size.
	pinned bool
}

var full = size{
	figBits: 16, figPairs: 5000, figTrials: 1,
	churnBits: 16, churnDuration: 1, churnRate: 20000,
	liveBits: 10, udpDuration: 1.5, udpRate: 5000,
	failoverDuration: 4, failoverRate: 50, failoverScheds: 16,
	pktReps: 20000,
	pinned:  true,
}

// minPasses is the fewest passes of each kind (untraced, traced) a run
// makes, however short --seconds is.
const minPasses = 3

// defaultSeed is the seed whose deterministic outputs are pinned.
const defaultSeed = 1

// passStats is what one pass reports.
type passStats struct {
	setup, wall time.Duration
	// lookups is the work the pass did, in lookups (routed pairs,
	// scheduled eventsim lookups, issued live lookups); started and ok
	// are the lookups that began and the ones delivered.
	lookups, started, ok int
	// latencies are per-lookup wall latencies (live workloads only).
	latencies []time.Duration
	// slowdown is how much slower than the reference the host ran the
	// pass (hostSlowdown; 1 where the workload reports wall time).
	slowdown float64
	// peakRSSKB is the process's peak resident set during the pass,
	// set-up included.
	peakRSSKB int64
}

// workload is one benchmark input set, driven pass by pass.
type workload interface {
	// transport names the network substrate, for the host fingerprint.
	transport() string
	// setup prepares one pass; measure times it as the pass's set-up.
	setup(tr *tracer, parent, req int) error
	// pass runs one pass on what setup prepared, times its main call,
	// checks the output and releases what setup acquired.
	pass(tr *tracer, parent, req int) (passStats, error)
	// layers runs the traced run's extra probes and returns the
	// per-layer metrics the workload measures, from tr's spans and the
	// untraced passes.
	layers(tr *tracer, plain []passStats) (map[string]float64, error)
}

// errWrong marks a pass whose output failed a correctness check.
var errWrong = errors.New("wrong output")

// result is the JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples is the number of per-lookup latencies behind the
	// percentiles; p50US is their median, printed but not gated (0 on
	// the batch workloads, which have no per-lookup latency).
	samples int
	p50US   float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig-render, sim-churn, live-udp or live-failover")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*secs > 0) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	o := options{seed: *seed, seconds: *secs, traced: *trace == 1, size: full, traceDir: *traceDir, log: stderr}
	w, err := newWorkload(*name, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	h := fingerprint(w.transport())
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q transport=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Transport)

	res, tr, err := measure(w, o)
	if o.traced && o.traceDir != "" {
		if werr := tr.write(o.traceDir, *name, o.seed, h); werr != nil {
			fmt.Fprintln(stderr, "perfbench:", werr)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		res.Correct, res.Metrics = false, map[string]metric{}
		printResult(stdout, res)
		return 1
	}
	if !o.traced {
		fmt.Fprintf(stdout, "lookup latency percentiles over %d samples\n", res.samples)
		if res.p50US > 0 {
			fmt.Fprintf(stdout, "%-34s %14.6g us (not gated)\n", "lookup_p50_us", res.p50US)
		}
	}
	for _, d := range defsFor(o.traced) {
		m := res.Metrics[d.name]
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	fmt.Fprintln(w, string(b))
}

// defsFor returns the metrics a run reports.
func defsFor(traced bool) []def {
	if traced {
		return perLayer
	}
	return endToEnd
}

// measure runs passes until o.seconds have elapsed and at least
// minPasses of each kind ran. A traced run alternates untraced and
// traced passes, so the tracing overhead compares passes made under the
// same conditions, then runs the workload's layer probes.
func measure(w workload, o options) (result, *tracer, error) {
	res := result{Correct: true}
	tr := newTracer(false)
	var plain, traced []passStats
	var cpu busy
	start := time.Now()
	for req := 1; ; req++ {
		tr.on = o.traced && req%2 == 0
		stopRSS := peakRSS()
		p0 := sampleProc()
		st, err := onePass(w, tr, req)
		p1 := sampleProc()
		cpu.add(p0, p1)
		st.peakRSSKB = stopRSS()
		st.slowdown = 1
		if _, ok := w.(computeBound); ok && err == nil {
			st.slowdown, err = hostSlowdown()
		}
		fmt.Fprintf(o.log, "pass %d traced=%v: setup %.4fs, run %.4fs, %d lookups, cpu %.3fs, host steal %.3fs, slowdown %.3f, peak rss %.1f MB\n",
			req, tr.on, st.setup.Seconds(), st.wall.Seconds(), st.lookups, (p1.cpu - p0.cpu).Seconds(), p1.steal-p0.steal, st.slowdown, float64(st.peakRSSKB)/1024)
		res.Attempted += st.lookups
		if err != nil {
			if errors.Is(err, errWrong) {
				res.Failed += st.lookups
			}
			return res, tr, err
		}
		if s, ok := w.(settler); ok {
			s.settle()
		}
		// Free the pass's garbage and return it to the OS outside the
		// timed sections, so every set-up starts from the same memory
		// state and one pass's heap does not inflate the next pass or the
		// peak RSS.
		debug.FreeOSMemory()
		if tr.on {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
		enough := len(plain) >= minPasses && (!o.traced || len(traced) >= minPasses)
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}

	vals, samples, p50 := endToEndValues(plain)
	res.samples, res.p50US = samples, p50
	if o.traced {
		tr.on = true
		layer, err := w.layers(tr, plain)
		if err != nil {
			return res, tr, err
		}
		vals = layer
		vals["process.cpu_util"] = cpu.util()
		vals["process.gc_cpu_frac"] = cpu.gcFrac()
		vals["process.steal_frac"] = cpu.stealFrac()
		vals["trace.overhead_s"] = median(passSeconds(traced)) - median(passSeconds(plain))
	}
	res.Metrics = make(map[string]metric)
	for _, d := range defsFor(o.traced) {
		v := vals[d.name] // a layer the workload does not call reports 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, tr, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, tr, nil
}

// settler is a workload that must wait, after a pass and outside every
// timed section, before the next pass can start from a clean state.
type settler interface {
	settle()
}

// onePass times the workload's set-up, then runs its pass.
func onePass(w workload, tr *tracer, req int) (passStats, error) {
	root := tr.start("pass", 0, req)
	defer tr.end(root)
	t0 := time.Now()
	if err := w.setup(tr, root, req); err != nil {
		return passStats{}, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)
	st, err := w.pass(tr, root, req)
	st.setup = setup
	return st, err
}

// passSeconds is each pass's set-up plus run time.
func passSeconds(ps []passStats) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = (p.setup + p.wall).Seconds()
	}
	return out
}

// passWalls is each pass's main-call wall time in seconds.
func passWalls(ps []passStats) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// endToEndValues summarizes the untraced passes: set-up and run time are
// medians over passes, each pass's divided by its host slowdown, and so is
// the peak RSS. On the
// live workloads lookup_p99_us is the exact percentile of every issued
// lookup's wall latency; it also returns their median and how many there
// were. The batch workloads have no per-lookup wall time: their
// lookup_p99_us is the median pass time per lookup and the median is 0.
func endToEndValues(plain []passStats) (vals map[string]float64, samples int, p50 float64) {
	var setups, walls, rates, perLookup, lat, rss []float64
	var started, ok int
	for _, p := range plain {
		wall := p.wall.Seconds() / p.slowdown
		setups = append(setups, p.setup.Seconds()/p.slowdown)
		walls = append(walls, wall)
		rates = append(rates, ratio(float64(p.lookups), wall))
		perLookup = append(perLookup, ratio(wall*1e6, float64(p.lookups)))
		rss = append(rss, float64(p.peakRSSKB)/1024)
		for _, l := range p.latencies {
			lat = append(lat, float64(l.Nanoseconds())/1e3)
		}
		started += p.started
		ok += p.ok
	}
	p99, samples := median(perLookup), len(perLookup)
	if len(lat) > 0 {
		p50, p99, samples = quantile(lat, 0.5), quantile(lat, 0.99), len(lat)
	}
	return map[string]float64{
		"setup_s":             median(setups),
		"pass_s":              median(walls),
		"lookups_per_s":       median(rates),
		"lookup_p99_us":       p99,
		"lookup_success_frac": ratio(float64(ok), float64(started)),
		"max_rss_mb":          median(rss),
	}, samples, p50
}

// wrong wraps a failed correctness check.
func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// nproc is the parallelism the workloads use: eventsim shards, exp
// workers and in-flight live lookups.
func nproc() int { return runtime.GOMAXPROCS(0) }
