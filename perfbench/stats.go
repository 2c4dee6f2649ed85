package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The gated timings start from CPU time, not wall time. On a shared
// virtual machine the host takes the virtual CPUs away from the guest at
// times (steal), as much as its other tenants demand; over ten runs on a
// 2-vCPU guest the wall-clock rates spread by 30-45% of their median while
// the program did the same work. The kernel leaves steal out of a thread's
// CPU time (paravirtual steal accounting), and waiting for a CPU inside the
// guest too. It counts every thread, the garbage collector's as well.
// probe.go then scales CPU time by the machine's speed.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func readClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// processCPU is the CPU time all of the process's threads have used so
// far, in seconds. The kernel brings other threads' figures up to date at
// each scheduler tick (4 ms here), so a reading can lag by that much per
// thread that is running elsewhere at the time.
func processCPU() float64 { return readClock(clockProcessCPU) }

// threadCPU is the CPU time the calling thread has used so far, in
// seconds, exact at the call. The caller locks its goroutine to its thread.
func threadCPU() float64 { return readClock(clockThreadCPU) }

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, with that percentile. With fewer than 40 samples that
// rule falls below p75, and tail returns p75 instead.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(n-1-tailBeyond, (3*n+3)/4-1)
	return s[i], 100 * float64(i+1) / float64(n)
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// heapCounts is a point-in-time reading of the cumulative heap allocation
// counters. runtime.ReadMemStats flushes the per-P caches, so the counts are
// exact at the call; it stops the world, so it is only used outside timed
// regions or in the allocation-counting replay.
type heapCounts struct{ objects, bytes uint64 }

func readHeap() heapCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounts{ms.Mallocs, ms.TotalAlloc}
}

func (h heapCounts) sub(o heapCounts) heapCounts {
	return heapCounts{h.objects - o.objects, h.bytes - o.bytes}
}

// runtimeWatch measures the Go runtime's share of a phase: the GC's share
// of CPU time (from runtime/metrics) and the peak live heap, sampled.
type runtimeWatch struct {
	start  []metrics.Sample
	stop   chan struct{}
	done   sync.WaitGroup
	peakMB float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() []metrics.Sample {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// watchRuntime starts sampling; stop it with finish.
func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{start: readCPU(), stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if mb := float64(heap[0].Value.Uint64()) / (1 << 20); mb > w.peakMB {
				w.peakMB = mb
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops the sampler and returns the GC CPU fraction of the phase and
// the peak heap in MB.
func (w *runtimeWatch) finish() (gcFrac, heapPeakMB float64) {
	close(w.stop)
	w.done.Wait()
	end := readCPU()
	gc := end[0].Value.Float64() - w.start[0].Value.Float64()
	total := end[1].Value.Float64() - w.start[1].Value.Float64()
	if total <= 0 {
		return 0, w.peakMB
	}
	return gc / total, w.peakMB
}
