package main

import (
	"sort"
	"time"
)

// The reference slice is a fixed CPU+memory kernel that lives in the
// benchmark, not in the program. It runs next to every timed unit, and
// each unit's wall time is divided by the slices around it. A host that
// slows down (frequency scaling, a noisy neighbour on the shared caches
// and memory bus) slows the slice too, so the ratio keeps the part of
// the time the program is responsible for. Normalized times are
// expressed at the speed where one slice takes refNominalNs.
const (
	// refSets × refWays is the reference model's tag array: 16Ki
	// entries of tag and stamp, a few hundred KiB like one L2 bank's
	// state in the simulator.
	refSets = 2048
	refWays = 8
	// refL1Lines is the direct-mapped filter in front of it.
	refL1Lines = 512
	// refSteps is the slice length. It is part of the benchmark's
	// definition: changing it changes every normalized number.
	refSteps = 20000
	// refNominalNs is the slice time that defines one normalized
	// nanosecond.
	refNominalNs = 2e6
	// refWindow is how many slices on each side of a unit feed its
	// normalizer; a window median shrugs off a slice that was preempted.
	refWindow = 3
)

// refKernel is one goroutine's reference state: a frozen miniature
// cache simulation — a direct-mapped filter, a set-associative LRU
// array and an event heap, driven by a mixed streaming/reuse/random
// address stream. It exercises what the simulator does (branchy tag
// compares, scattered loads and stores over a few hundred KiB, heap
// churn), so host slowdowns hit it the way they hit the program. It is
// the benchmark's own code and never changes with the program.
type refKernel struct {
	tags   []uint64
	stamp  []uint32
	l1     []uint64
	heap   []int64
	x      uint64
	now    int64
	clock  uint32
	stream uint64
	sink   uint64
}

func newRefKernel() *refKernel {
	return &refKernel{
		tags:  make([]uint64, refSets*refWays),
		stamp: make([]uint32, refSets*refWays),
		l1:    make([]uint64, refL1Lines),
		heap:  make([]int64, 0, 1024),
		x:     0x9E3779B97F4A7C15,
	}
}

func (k *refKernel) push(t int64) {
	h := append(k.heap, t)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() int64 {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.heap = h
	return top
}

// step runs n model steps.
func (k *refKernel) step(n int) {
	x := k.x
	for s := 0; s < n; s++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var line uint64
		switch {
		case x&7 < 3: // streaming
			k.stream++
			line = k.stream & (1<<16 - 1)
		case x&7 < 5: // hot reuse
			line = (x >> 20) & (1<<10 - 1)
		default: // scattered
			line = (x >> 24) & (1<<15 - 1)
		}
		k.clock++
		f := &k.l1[line%refL1Lines]
		if *f == line+1 {
			k.now++
			continue
		}
		*f = line + 1
		base := int(line%refSets) * refWays
		tag := line/refSets + 1
		hit, victim, oldest := -1, base, k.stamp[base]
		for w := base; w < base+refWays; w++ {
			if k.tags[w] == tag {
				hit = w
				break
			}
			if k.stamp[w] < oldest {
				victim, oldest = w, k.stamp[w]
			}
		}
		lat := int64(20)
		if hit < 0 {
			k.tags[victim] = tag
			hit = victim
			lat = 200 + int64(x>>60)
		}
		k.stamp[hit] = k.clock
		k.push(k.now + lat)
		for len(k.heap) > 0 && (k.heap[0] <= k.now || len(k.heap) > 900) {
			k.sink += uint64(k.pop())
		}
		k.now++
	}
	k.x = x
}

// normalizer runs reference slices and maps raw unit times to
// normalized ones. Slices run on one goroutine even when the unit uses
// more: measured here, two-goroutine slices swung with which cores the
// threads landed on and spread normalized replay-fanout times wider
// (±24%) than raw ones, while one-goroutine slices tracked the same
// two-worker replays within ±5% across processes.
type normalizer struct {
	kernel *refKernel
	slices []float64 // wall ns of each slice, in order
}

func newNormalizer() *normalizer {
	n := &normalizer{kernel: newRefKernel()}
	// One untimed slice pages the arrays in.
	n.run()
	return n
}

// run executes one slice and returns its wall time in ns.
func (n *normalizer) run() float64 {
	start := time.Now()
	n.kernel.step(refSteps)
	return float64(time.Since(start).Nanoseconds())
}

// slice times one slice, records it, and returns its index. A unit
// timed after slice i is normalized by the slices around i.
func (n *normalizer) slice() int {
	n.slices = append(n.slices, n.run())
	return len(n.slices) - 1
}

// factor converts a raw time measured after slice i into normalized
// time: refNominalNs over the median of the slices within refWindow of
// i (the slice after the unit is i+1, so the window brackets it).
func (n *normalizer) factor(i int) float64 {
	return refNominalNs / windowMedian(n.slices, i, refWindow)
}

// windowMedian is the median of xs[i-w .. i+w], clipped to the slice.
func windowMedian(xs []float64, i, w int) float64 {
	lo, hi := i-w, i+w+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(xs) {
		hi = len(xs)
	}
	win := append([]float64(nil), xs[lo:hi]...)
	sort.Float64s(win)
	m := len(win) / 2
	if len(win)%2 == 1 {
		return win[m]
	}
	return (win[m-1] + win[m]) / 2
}
