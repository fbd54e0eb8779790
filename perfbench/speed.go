package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host's CPUs are shared with other tenants whose load drifts over
// minutes, and a compute-bound pass slows with it: on a 2-vCPU Xeon VM the
// median fig-render pass of a 20 s run spread 6–13% of its median over
// five runs (interquartile range) while the code stayed the same. The
// compute-bound workloads therefore time a fixed kernel, the benchmark's
// own code, right after every pass, and scale the pass's timings by how
// much slower than speedRef the kernel ran: a pass's cost in reference
// seconds. A change to the program moves the pass and not the kernel, so
// it shows in full; a slower host moves both and cancels. On the same host
// the scaled times of two sets of ten 30 s runs spread 2.5–5%.

// speedRef is the kernel's time on the reference host (the 2-vCPU Xeon VM
// the benchmark was defined on, when quiet), so reference seconds read
// close to that host's wall seconds.
const speedRef = 50 * time.Millisecond

// speedTable is the kernel's pointer-chasing table: 8 MiB, more than a
// last-level cache share, as the routing tables the workloads walk are.
// It is built on first use, so the live workloads' memory does not hold
// it, and mapped outside the Go heap, so it does not change how often the
// collector runs during a pass.
var speedTable = sync.OnceValues(func() ([]uint32, error) {
	const n = 1 << 21
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the speed kernel's table: %w", err)
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	for i := range t {
		t[i] = uint32((uint64(i)*2654435761 + 12345) % uint64(len(t)))
	}
	return t, nil
})

// hostSlowdown runs the kernel, a fixed mix of dependent random loads and
// integer work, on every CPU the passes use at once, and returns its time
// over speedRef. A pass waits for its slowest CPU, and so does the kernel.
func hostSlowdown() (float64, error) {
	t, err := speedTable()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for range nproc() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(t)
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(speedRef), nil
}

// speedSink keeps the kernel's result, so the compiler cannot drop its work.
var speedSink atomic.Uint64

// kernel chases 300000 dependent loads through t, with integer work on
// each value loaded.
func kernel(t []uint32) {
	var j uint32
	x := uint64(1)
	for i := 0; i < 300000; i++ {
		j = t[j]
		for k := 0; k < 20; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		x += uint64(j)
	}
	speedSink.Add(x)
}

// computeBound marks a workload whose timings are scaled by hostSlowdown:
// its passes are pure computation, which slows as the kernel does. The
// live workloads' times are set by sockets, wake-ups and RTO timers, which
// do not follow the kernel, so they report wall time.
type computeBound interface {
	computeBound()
}

func (f *figRender) computeBound() {}
func (c *simChurn) computeBound()  {}
