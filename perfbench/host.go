package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint every result is stamped with: figures from
// hosts with different CPU counts or toolchains do not compare.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu"`
	Transport  string `json:"transport"`
}

func fingerprint(transport string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Transport:  transport,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file or the field is missing).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procSample is a point-in-time reading of the process's CPU use.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system
	gc, all float64       // runtime/metrics CPU-seconds: GC and total
	steal   float64       // CPU-seconds the hypervisor gave other guests, host-wide
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(ms)
	return procSample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:    ms[0].Value.Float64(),
		all:   ms[1].Value.Float64(),
		steal: stealSeconds(),
	}
}

// stealSeconds reads the steal column of /proc/stat: time this virtual
// machine's CPUs were ready to run but the hypervisor ran another guest.
// It is 0 where the file or the column is missing (no hypervisor, or not
// Linux). The kernel counts in USER_HZ ticks, 100 per second.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// busy sums the process's CPU use over the passes, leaving out the work
// between them: freeing memory and waiting for a closed cluster's heap.
type busy struct {
	wall, cpu, steal float64 // seconds
	gc, all          float64 // runtime/metrics CPU-seconds: GC and total
}

func (b *busy) add(from, to procSample) {
	b.wall += to.wall.Sub(from.wall).Seconds()
	b.cpu += (to.cpu - from.cpu).Seconds()
	b.steal += to.steal - from.steal
	b.gc += to.gc - from.gc
	b.all += to.all - from.all
}

// util is the CPU time over the wall time times the CPUs available: 1
// means every CPU was busy throughout the passes.
func (b *busy) util() float64 {
	return ratio(b.cpu, b.wall*float64(runtime.GOMAXPROCS(0)))
}

// stealFrac is the share of the host's CPU time the hypervisor gave to
// other guests during the passes. Timings taken while it is high are
// slower and noisier.
func (b *busy) stealFrac() float64 {
	return ratio(b.steal, b.wall*float64(runtime.NumCPU()))
}

// gcFrac is the share of the Go runtime's CPU time spent in the garbage
// collector during the passes.
func (b *busy) gcFrac() float64 { return ratio(b.gc, b.all) }

// rssSampleEvery is how often peakRSS reads the resident set.
const rssSampleEvery = 5 * time.Millisecond

// peakRSS samples the process's resident set every rssSampleEvery from
// its own goroutine until the returned stop is called; stop returns the
// largest sample in KiB. The kernel's own peak (getrusage) covers the
// whole run, whose peak is the largest of many draws and grows with the
// number of passes; a pass's peak does not. Where /proc/self/statm cannot
// be read, stop returns the run's peak from getrusage.
func peakRSS() (stop func() int64) {
	done := make(chan struct{})
	peak := make(chan int64)
	go func() {
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		hi := rssKB()
		for {
			select {
			case <-tick.C:
				hi = max(hi, rssKB())
			case <-done:
				peak <- max(hi, rssKB())
				return
			}
		}
	}()
	return func() int64 {
		close(done)
		if kb := <-peak; kb > 0 {
			return kb
		}
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return ru.Maxrss
	}
}

// rssKB reads the resident set in KiB from /proc/self/statm, 0 where it
// cannot.
func rssKB() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize()) / 1024
}
