package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"rcm/eventsim"
	"rcm/internal/dht"
)

// simChurn runs the message-level event engine on a freshly built chord
// overlay under exponential churn with maintenance on, so every engine
// event kind is on the hot path (queue, dispatch, Forwarder, barrier,
// lifecycle timers) and maintenance writes the routing tables. It touches
// no live-node code.
type simChurn struct {
	o       options
	overlay dht.Protocol // built by setup, consumed by pass
	first   string       // the first pass's result digest
	last    *eventsim.Result
}

// churnDigests pins the default seed's full-size Result digest for the
// shard counts it was recorded at; the shard count is part of eventsim's
// sampling plan, so each count has its own.
var churnDigests = map[int]string{
	1: "8a56f7710725f3ea791e899cfe96a1a375471161d8ed8359d9b62c9a309859f6",
	2: "cd68830fce5cbda4c5deadb03cb862c8a7cbbdb342a5f8ea7076d97ae6e374af",
	4: "cb7360cbc6ba4e0d4cc1a95d0656047f3c093e5d662bffc437316a99288a8862",
}

func (c *simChurn) transport() string { return "none (simulated)" }

func (c *simChurn) config(shards int) eventsim.Config {
	return eventsim.Config{
		Protocol: "chord",
		Overlay:  eventsim.OverlayConfig{Bits: c.o.size.churnBits, Seed: c.o.seed},
		Scenario: "churn",
		Params: eventsim.Params{
			MeanOnline:  1,
			MeanOffline: 0.25,
			Rate:        c.o.size.churnRate,
		},
		Seed:           c.o.seed,
		Shards:         shards,
		Duration:       c.o.size.churnDuration,
		Maintain:       true,
		StabilizeEvery: 0.25,
	}
}

// setup builds the overlay; maintenance rewrites its tables, so every
// pass needs its own.
func (c *simChurn) setup(tr *tracer, parent, req int) error {
	cfg := c.config(nproc())
	sp := tr.start("dht.New", parent, req)
	p, err := dht.New(cfg.Protocol, cfg.Overlay)
	tr.end(sp)
	c.overlay = p
	return err
}

func (c *simChurn) pass(tr *tracer, parent, req int) (passStats, error) {
	res, wall, err := c.runOnce(tr, parent, req, nproc())
	if err != nil {
		return passStats{}, err
	}
	c.last = res
	tot := res.Totals()
	st := passStats{wall: wall, lookups: res.Lookups, started: tot.Started, ok: tot.Completed}
	return st, c.check(res)
}

// runOnce runs the engine on the overlay setup built.
func (c *simChurn) runOnce(tr *tracer, parent, req, shards int) (*eventsim.Result, time.Duration, error) {
	p := c.overlay
	c.overlay = nil
	sp := tr.startMem("eventsim.RunOverlay", parent, req)
	t0 := time.Now()
	res, err := eventsim.RunOverlay(p, c.config(shards))
	wall := time.Since(t0)
	tr.end(sp)
	return res, wall, err
}

// check requires every pass of the run — same seed, same shards — to
// produce the identical Result, and the default seed's Result to match
// its pin.
func (c *simChurn) check(res *eventsim.Result) error {
	if err := nonEmpty(res); err != nil {
		return err
	}
	d, err := resultDigest(res)
	if err != nil {
		return err
	}
	if c.first == "" {
		c.first = d
	} else if d != c.first {
		return wrong("eventsim result digest %s differs from the first pass's %s at the same (seed, shards)", d, c.first)
	}
	if want := churnDigests[res.Shards]; c.o.size.pinned && c.o.seed == defaultSeed && want != "" && d != want {
		return wrong("eventsim result digest %s at %d shards, pinned %s", d, res.Shards, want)
	}
	return nil
}

// nonEmpty rejects a run that scheduled, started, completed or processed
// nothing.
func nonEmpty(res *eventsim.Result) error {
	tot := res.Totals()
	if res.Lookups == 0 || tot.Started == 0 || tot.Completed == 0 || res.Events == 0 {
		return wrong("empty run: %d lookups, %d started, %d completed, %d events",
			res.Lookups, tot.Started, tot.Completed, res.Events)
	}
	return nil
}

// resultDigest hashes every deterministic field of an eventsim Result.
func resultDigest(res *eventsim.Result) (string, error) {
	b, err := json.Marshal(struct {
		Buckets          []eventsim.Bucket
		Lookups          int
		Events           uint64
		HopDist, LatDist any
	}{res.Buckets, res.Lookups, res.Events, res.HopDist, res.LatDist})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// layers reads the engine's counters off the traced passes, then times
// BuildSchedule (the scenario programming RunOverlay does first) and a
// one-shard run of the same problem, the single-threaded baseline.
func (c *simChurn) layers(tr *tracer, plain []passStats) (map[string]float64, error) {
	runs := tr.named("eventsim.RunOverlay") // the traced passes only, so far
	var rates []float64
	var mallocs uint64
	for _, s := range runs {
		rates = append(rates, ratio(float64(c.last.Events), s.dur().Seconds()))
		mallocs += s.Mallocs
	}
	eventsPerS := median(rates)

	root := tr.start("probe", 0, 0)
	defer tr.end(root)
	sp := tr.start("eventsim.BuildSchedule", root, 0)
	_, err := eventsim.BuildSchedule(c.config(nproc()))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := c.setup(tr, root, 0); err != nil {
		return nil, err
	}
	serial, serialWall, err := c.runOnce(tr, root, 0, 1)
	if err != nil {
		return nil, err
	}
	if err := nonEmpty(serial); err != nil {
		return nil, err
	}
	serialRate := ratio(float64(serial.Events), serialWall.Seconds())

	tot, lookups := c.last.Totals(), float64(c.last.Lookups)
	return map[string]float64{
		"dht.build_ms":                    tr.meanMS("dht.New"),
		"eventsim.events_per_s":           eventsPerS,
		"eventsim.allocs_per_event":       ratio(float64(mallocs), float64(c.last.Events)*float64(len(runs))),
		"eventsim.program_ms":             tr.meanMS("eventsim.BuildSchedule"),
		"eventsim.events_per_lookup":      ratio(float64(c.last.Events), lookups),
		"eventsim.lookup_msgs_per_lookup": ratio(float64(tot.LookupMessages), lookups),
		"eventsim.maint_msgs_per_lookup":  ratio(float64(tot.MaintMessages), lookups),
		"eventsim.timeouts_per_lookup":    ratio(float64(tot.Timeouts), lookups),
		"eventsim.serial_events_per_s":    serialRate,
		"eventsim.shard_speedup":          ratio(eventsPerS, serialRate),
	}, nil
}
