package main

import (
	"math/rand"
	"runtime"
	"slices"
)

// The gated times are CPU times scaled by the machine's speed at the
// moment they were taken. On a shared virtual machine the host's other
// tenants slow the guest's CPUs down through the caches and memory they
// share, by up to twice and for minutes at a time. On a 2-vCPU guest the
// CPU time of one AllocateModule call ranged over 1.5x in ten minutes, its
// medians over 15-second windows spreading by 19% of their median. CPU time
// leaves out the time the host takes the CPU away (steal), but not this.
//
// So measured ops are followed by a speed probe: a fixed, memory-bound
// graph kernel (a breadth-first search over a random graph, then a sort)
// that does the same work in every run and every version of the program,
// so its CPU time follows only the machine. An op's scaled time is its CPU
// time × probeNominalS ÷ the median of the probes around it. Divided by a
// kernel of this kind run next to it, the AllocateModule times in that log
// spread by 3–4% instead of 19%.
const (
	probeNodes  = 200_000
	probeDegree = 4
	probeSort   = 50_000
	// probeWindow is how many probes on each side of an op its scale
	// factor takes the median over.
	probeWindow = 2
	// probeNominalS sets the unit of scaled times: seconds on a machine
	// where one probe takes this long. On the 2-vCPU Xeon guest above the
	// probe took 17–23 ms while the host was busy; 10 ms puts the scaled
	// figures near the unscaled ones measured there in a quiet period.
	probeNominalS = 0.010
)

// speedProbe is the probe kernel's fixed input and its scratch; it
// allocates nothing once built, so it neither triggers nor pays for the
// program's garbage collections.
type speedProbe struct {
	off, adj  []int32
	seen      []bool
	queue     []int32
	src, keys []int
}

// newSpeedProbe builds the probe's graph from a fixed seed, not the run's.
func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(1))
	p := &speedProbe{
		off:   make([]int32, probeNodes+1),
		adj:   make([]int32, probeNodes*probeDegree),
		seen:  make([]bool, probeNodes),
		queue: make([]int32, 0, probeNodes),
		src:   make([]int, probeSort),
		keys:  make([]int, probeSort),
	}
	for v := range probeNodes {
		p.off[v+1] = int32((v + 1) * probeDegree)
		for k := range probeDegree {
			p.adj[v*probeDegree+k] = int32(rng.Intn(probeNodes))
		}
	}
	for i := range p.src {
		p.src[i] = rng.Int()
	}
	return p
}

// run does the probe's work once and returns the CPU seconds it took on
// its thread.
func (p *speedProbe) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	clear(p.seen)
	p.queue = append(p.queue[:0], 0)
	p.seen[0] = true
	for h := 0; h < len(p.queue); h++ {
		v := p.queue[h]
		for _, w := range p.adj[p.off[v]:p.off[v+1]] {
			if !p.seen[w] {
				p.seen[w] = true
				p.queue = append(p.queue, w)
			}
		}
	}
	copy(p.keys, p.src)
	slices.Sort(p.keys)
	return threadCPU() - c0
}

// block runs n probes back to back and returns their times.
func (p *speedProbe) block(n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = p.run()
	}
	return t
}

// setupProbes is how many probes run just before and just after each
// set-up; its CPU time is scaled by the median of both blocks.
const setupProbes = 3

// scaleFactor is the factor that takes a CPU time measured next to probe j
// to the nominal machine.
func scaleFactor(probes []float64, j int) float64 {
	lo, hi := max(0, j-probeWindow), min(len(probes), j+probeWindow+1)
	return probeNominalS / median(probes[lo:hi])
}
