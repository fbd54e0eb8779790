package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"rcm/eventsim"
	"rcm/node"
	"rcm/node/cluster"
)

// live replays eventsim massfail schedules, closed loop with nproc
// lookups in flight, against a freshly booted 2^liveBits-node chord
// cluster. Without failures (live-udp) it runs over loopback UDP sockets
// with the node default RTO and retransmits: per-packet cost dominates
// and no timeout should fire. With failures (live-failover) it runs in memory with the
// conformance suite's settings: RTO expiry, failover, kill and the origin
// deadline dominate. Loopback traffic never crosses a real link.
type live struct {
	o        options
	failover bool
	passes   int                  // setups so far
	inSeed   uint64               // the current pass's overlay seed
	scheds   []*eventsim.Schedule // built by setup
	c        *cluster.Cluster     // booted by setup, closed by pass
	metrics  []node.Metrics       // cluster-wide counters of the first traced passes
	issued   int                  // issued lookups of the same passes
	// tracedIssued counts the issued lookups of every traced pass.
	tracedIssued int
	// baseHeap is the live heap before the current pass's set-up;
	// retainedMB is what each closed cluster left reachable.
	baseHeap   uint64
	retainedMB []float64
}

// liveFailQ is live-failover's failure fraction.
const liveFailQ = 0.08

// liveDigests pins the default seed's full-size first-pass schedules and
// their eventsim predictions (computed with one shard, so they are the
// same on every host).
var liveDigests = map[bool]string{
	false: "82921e51342339de6bcd1633c1c2ab241eb10e4ff5aab7e6c94dbed703c23e07",
	true:  "b203f6c39ff2eead497fe25a5b93d66afade88689f8f6f7fafa59f2ccb5e456c",
}

func newLive(o options, failover bool) *live {
	return &live{o: o, failover: failover, baseHeap: heapAfterGC()}
}

func (l *live) transport() string {
	if l.failover {
		return "in-memory datagrams"
	}
	return "loopback UDP"
}

// schedules is how many schedules a pass replays on its cluster.
func (l *live) schedules() int {
	if l.failover {
		return l.o.size.failoverScheds
	}
	return 1
}

// schedConfig is the pass's schedule j: all of a pass's schedules share
// the cluster's overlay and differ in failure pattern and lookups.
func (l *live) schedConfig(j int) eventsim.Config {
	q, rate, dur := 0.0, l.o.size.udpRate, l.o.size.udpDuration
	if l.failover {
		q, rate, dur = liveFailQ, l.o.size.failoverRate, l.o.size.failoverDuration
	}
	return eventsim.Config{
		Protocol: "chord",
		Overlay:  eventsim.OverlayConfig{Bits: l.o.size.liveBits, Seed: l.inSeed},
		Scenario: "massfail",
		Params:   eventsim.Params{FailFraction: q, FailTime: 1, Rate: rate},
		Duration: dur,
		Seed:     l.inSeed + uint64(j),
		Shards:   1,
		// As in the conformance suite: a lossless transport never gains
		// from re-sending to the same candidate.
		Retransmits: -1,
	}
}

func (l *live) clusterConfig() cluster.Config {
	cfg := cluster.Config{
		Protocol:  "chord",
		Bits:      l.o.size.liveBits,
		Seed:      l.inSeed,
		Transport: "udp",
		// No lookup comes near the deadline at q=0 (p99 is a few ms),
		// but it sets how long each lookup's origin guard timer keeps a
		// closed cluster reachable (deadline + 2 RTO, see settle): at the
		// node default of 5 s, settle's wait would take most of a run.
		Deadline: time.Second,
	}
	if l.failover {
		cfg.Transport = "mem"
		cfg.RTO = 15 * time.Millisecond
		cfg.Retransmits = -1
		cfg.Deadline = 3 * time.Second
	}
	return cfg
}

// setup builds the pass's schedules and boots the cluster. Every pass
// draws fresh overlays, failure patterns and workloads from the run's
// seed: which nodes fail sets how many lookups wait out an RTO, so a run
// that replayed one pattern would time a property of its seed.
func (l *live) setup(tr *tracer, parent, req int) error {
	l.inSeed = l.o.seed ^ uint64(l.passes)*0x9e3779b97f4a7c15
	l.passes++
	for j := 0; j < l.schedules(); j++ {
		sp := tr.start("eventsim.BuildSchedule", parent, req)
		sched, err := eventsim.BuildSchedule(l.schedConfig(j))
		tr.end(sp)
		if err != nil {
			return err
		}
		l.scheds = append(l.scheds, sched)
	}
	sp := tr.start("cluster.New", parent, req)
	c, err := cluster.New(l.clusterConfig())
	tr.end(sp)
	if err != nil {
		return err
	}
	l.c = c
	return nil
}

// pass replays each schedule in turn, restarting the nodes the previous
// one killed first; only the replays are timed.
func (l *live) pass(tr *tracer, parent, req int) (passStats, error) {
	c, scheds := l.c, l.scheds
	l.c, l.scheds = nil, nil
	var st passStats
	reps := make([]*cluster.Report, len(scheds))
	for j, sched := range scheds {
		if j > 0 {
			for i := 0; i < c.Len(); i++ {
				if c.Node(i).Down() {
					c.Restart(i)
				}
			}
		}
		sp := tr.startMem("cluster.Replay", parent, req)
		t0 := time.Now()
		rep, err := c.Replay(sched, cluster.ReplayOptions{Concurrency: nproc()})
		st.wall += time.Since(t0)
		tr.end(sp)
		if err != nil {
			c.Close()
			return passStats{}, err
		}
		reps[j] = rep
		for _, o := range rep.Outcomes {
			if o.Skipped {
				continue
			}
			st.lookups++
			st.latencies = append(st.latencies, o.Latency)
			if o.OK {
				st.ok++
			}
		}
	}
	st.started = st.lookups
	if tr.on {
		l.tracedIssued += st.lookups
	}
	// The counts come from the first traced passes only, whose inputs
	// do not depend on how many passes the run's time allowed.
	if tr.on && len(l.metrics) < minPasses {
		sp := tr.start("cluster.Metrics", parent, req)
		l.metrics = append(l.metrics, c.Metrics())
		tr.end(sp)
		l.issued += st.lookups
	}
	// Close before checking: the check runs the simulator, which should
	// not add its heap to a live cluster's.
	c.Close()
	return st, l.check(scheds, reps, st)
}

// settleMax bounds settle's wait; settleSlackMB is the heap growth it
// still counts as released (the run's kept latencies and spans).
const (
	settleMax     = 15 * time.Second
	settleSlackMB = 8
)

// settle records how much of the heap the closed cluster left reachable,
// then waits until it is collectable again. Every lookup arms an origin
// guard timer (deadline + 2 RTO) that neither the response nor Close
// stops, and each one holds its node, so a closed cluster stays in memory
// until its last lookup's guard fires. Without the wait, how many earlier
// clusters the next pass shares the heap with, and so its GC work and the
// peak RSS, would depend on how fast the passes ran.
func (l *live) settle() {
	h := heapAfterGC()
	retained := float64(h-min(h, l.baseHeap)) / (1 << 20)
	l.retainedMB = append(l.retainedMB, retained)
	slack := l.baseHeap + settleSlackMB<<20
	t0 := time.Now()
	for h > slack && time.Since(t0) < settleMax {
		time.Sleep(100 * time.Millisecond)
		h = heapAfterGC()
	}
	fmt.Fprintf(l.o.log, "closed cluster kept %.1f MB reachable for %.2fs\n", retained, time.Since(t0).Seconds())
	l.baseHeap = h
}

// heapAfterGC collects garbage and returns the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// check holds the replays to the simulator: live-udp must deliver every
// lookup; on live-failover each schedule's steady-state success must lie
// within the conformance suite's ±0.05 of eventsim's on that schedule.
// The default seed's first-pass schedules and predictions are pinned.
func (l *live) check(scheds []*eventsim.Schedule, reps []*cluster.Report, st passStats) error {
	if st.lookups == 0 {
		return wrong("replay issued no lookups")
	}
	if !l.failover && st.ok != st.lookups {
		return wrong("live-udp delivered %d of %d lookups at q=0", st.ok, st.lookups)
	}
	pin := l.o.size.pinned && l.o.seed == defaultSeed && l.inSeed == l.o.seed
	if !pin && !l.failover {
		return nil
	}
	h := sha256.New()
	for j, sched := range scheds {
		cfg := l.schedConfig(j)
		ref, err := eventsim.Run(cfg)
		if err != nil {
			return fmt.Errorf("eventsim reference: %w", err)
		}
		d, err := resultDigest(ref)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s|%v|%v|%v", d, sched.InitialOffline, sched.Toggles, sched.Lookups)
		if !l.failover {
			continue
		}
		from, to := cfg.Params.FailTime+1, sched.Duration
		simS, liveS := ref.WindowSuccess(from, to), reps[j].WindowSuccess(from, to)
		if math.IsNaN(simS) || math.IsNaN(liveS) || math.Abs(simS-liveS) > 0.05 {
			return wrong("schedule %d: live success %.4f vs eventsim %.4f over [%v, %v], beyond ±0.05", j, liveS, simS, from, to)
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), liveDigests[l.failover]; pin && got != want {
		return wrong("schedule and eventsim digest %s, pinned %s", got, want)
	}
	return nil
}

// layers reads the node counters and allocations off the traced
// replays, then times single packets through both transports.
func (l *live) layers(tr *tracer, plain []passStats) (map[string]float64, error) {
	m := node.MergeMetrics(l.metrics...)
	issued := float64(l.issued)
	_, mallocs, bytes, _ := tr.total("cluster.Replay")

	// Mean wall latency of the untraced passes' lookups over the hops a
	// lookup takes.
	var latUS, plainIssued float64
	for _, p := range plain {
		for _, d := range p.latencies {
			latUS += float64(d.Nanoseconds()) / 1e3
		}
		plainIssued += float64(p.lookups)
	}
	hopsPerLookup := ratio(float64(m.Hops.Sum()), issued)

	out := map[string]float64{
		"eventsim.program_ms":       tr.meanMS("eventsim.BuildSchedule"),
		"cluster.boot_ms":           tr.meanMS("cluster.New"),
		"cluster.retained_mb":       median(l.retainedMB),
		"node.allocs_per_lookup":    ratio(float64(mallocs), float64(l.tracedIssued)),
		"node.bytes_per_lookup":     ratio(float64(bytes), float64(l.tracedIssued)),
		"node.us_per_hop":           ratio(ratio(latUS, plainIssued), hopsPerLookup),
		"node.msgs_per_lookup":      ratio(float64(m.ReqsOut+m.AcksOut+m.RespsOut), issued),
		"node.hops_per_lookup":      hopsPerLookup,
		"node.timeouts_per_lookup":  ratio(float64(m.Timeouts), issued),
		"node.failovers_per_lookup": ratio(float64(m.Failovers), issued),
		"node.dup_reqs":             float64(m.DupReqs) / float64(len(l.metrics)),
		"node.shed":                 float64(m.Shed) / float64(len(l.metrics)),
	}
	root := tr.start("probe", 0, 0)
	defer tr.end(root)
	for _, size := range []struct {
		name string
		n    int
	}{{"small", minPacket}, {"max", minPacket + node.MaxValueLen}} {
		ns, err := memPacketNS(tr, root, size.n, l.o.size.pktReps)
		if err != nil {
			return nil, err
		}
		out["node.mem_pkt_ns."+size.name] = ns
		if ns, err = udpPacketNS(tr, root, size.n, l.o.size.pktReps); err != nil {
			return nil, err
		}
		out["node.udp_pkt_ns."+size.name] = ns
	}
	return out, nil
}

// minPacket is the wire format's smallest message: the fixed header plus
// an empty origin and an empty value.
const minPacket = 38 + 1 + 2

// memPacketNS times one packet of n bytes from one in-memory endpoint to
// another: Send, then the Recv that returns it.
func memPacketNS(tr *tracer, parent, n, reps int) (float64, error) {
	net := node.NewMemNetwork()
	a, b := net.Endpoint(), net.Endpoint()
	defer a.Close()
	defer b.Close()
	return packetNS(tr, parent, "node.MemNetwork", a, b, n, reps)
}

// udpPacketNS is memPacketNS over two loopback UDP sockets.
func udpPacketNS(tr *tracer, parent, n, reps int) (float64, error) {
	a, err := node.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := node.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	return packetNS(tr, parent, "node.ListenUDP", a, b, n, reps)
}

// packetNS sends reps packets of n bytes from a to b one at a time, each
// received before the next is sent, and returns the median ns per packet
// over batches of 100.
func packetNS(tr *tracer, parent int, name string, a, b node.Transport, n, reps int) (float64, error) {
	// A lost datagram would block Recv for good; closing b turns that
	// into an error.
	watchdog := time.AfterFunc(30*time.Second, func() { b.Close() })
	defer watchdog.Stop()
	pkt := make([]byte, n)
	const batch = 100
	var per []float64
	for done := 0; done < reps; done += batch {
		sp := tr.start(name, parent, 0)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := a.Send(b.Addr(), pkt); err != nil {
				return 0, err
			}
			got, _, err := b.Recv()
			if err != nil {
				return 0, err
			}
			if len(got) != n {
				return 0, wrong("%s delivered %d bytes, sent %d", name, len(got), n)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
		tr.end(sp)
	}
	return median(per), nil
}
