package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Spans of one pass share Req; Parent is the enclosing span's ID (0 for a
// pass's root span). Mallocs and Bytes are the process-wide heap
// allocations made during the span, recorded only for spans opened with
// startMem.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`

	mem            bool
	mallocs, bytes uint64
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and every method is a no-op, so untraced passes run the
// same code. It is used from the benchmark's main goroutine only.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span and returns its ID (0 when tracing is off).
func (t *tracer) start(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// startMem opens a span that also records heap allocations. Reading the
// allocation counters stops the world, so only spans around large calls
// use it.
func (t *tracer) startMem(name string, parent, req int) int {
	id := t.start(name, parent, req)
	if id == 0 {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &t.spans[id-1]
	s.mem, s.mallocs, s.bytes = true, ms.Mallocs, ms.TotalAlloc
	s.StartNS = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	if s.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Mallocs, s.Bytes = ms.Mallocs-s.mallocs, ms.TotalAlloc-s.bytes
	}
}

// named returns the closed spans called name, in start order.
func (t *tracer) named(name string) []*span {
	var out []*span
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.EndNS != 0 {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations, allocations and bytes of the spans called name.
func (t *tracer) total(name string) (d time.Duration, mallocs, bytes uint64, n int) {
	for _, s := range t.named(name) {
		d += s.dur()
		mallocs += s.Mallocs
		bytes += s.Bytes
		n++
	}
	return d, mallocs, bytes, n
}

// meanMS returns the mean duration of the spans called name in ms.
func (t *tracer) meanMS(name string) float64 {
	d, _, _, n := t.total(name)
	return ratio(float64(d)/1e6, float64(n))
}

// write stores the spans and the host fingerprint as JSON in dir.
func (t *tracer) write(dir, workload string, seed uint64, h host) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Host     host   `json:"host"`
		Spans    []span `json:"spans"`
	}{workload, seed, h, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return os.WriteFile(path, b, 0o644)
}
