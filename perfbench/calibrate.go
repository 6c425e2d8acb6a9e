package main

import (
	"math"
	"runtime"
	"sync"
)

// The host's own speed drifts: on a shared 2-CPU VM the same code ran
// 1.6 times faster at one hour than at another, with no steal to show
// for it, so runs of the same code minutes apart spread by 10–35%. A
// fixed reference kernel, timed on every worker between repetitions,
// tracks that drift, and the gated timings are scaled to the speed of a
// reference host. The kernel belongs to the benchmark, not to the
// simulator: a change to the simulator cannot make it faster or slower.
// Changing the kernel or refHostSeconds changes every scaled figure, so
// both stay fixed.

// refHostSeconds is the mean CPU time the reference kernel takes on the
// reference host, a 2-CPU Intel Xeon VM at 2.1 GHz: about the middle of
// the 10–18 ms it measured there over two hours.
const refHostSeconds = 0.014

// refSteps is the kernel's fixed amount of work.
const refSteps = 100_000

// refNodes is the size of the kernel's state table: 4096 nodes of 8
// floats, 256 KB, so that it reaches past the first-level caches the way
// the simulator's engines do.
const refNodes = 4096

type refEvent struct {
	t    float64
	node int
}

// refKernel is a small discrete-event loop in the simulator's style: a
// binary-heap event queue, an xorshift stream, float math and a table of
// per-node state. Its buffers are allocated once, so that running it
// leaves no garbage for the repetition that follows.
type refKernel struct {
	state []float64
	heap  []refEvent
	sink  float64
}

func newRefKernel() *refKernel {
	return &refKernel{state: make([]float64, refNodes*8), heap: make([]refEvent, 0, 1024)}
}

// reference times one kernel per worker.
type reference [workers]*refKernel

func newReference() *reference {
	var r reference
	for i := range r {
		r[i] = newRefKernel()
	}
	return &r
}

// seconds runs the kernel on every worker at once and returns their
// mean CPU time. The two CPUs of a shared VM need not run at one speed,
// and the parallel workloads run on both.
func (r *reference) seconds() float64 {
	var times [workers]float64
	var wg sync.WaitGroup
	for i, k := range r {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = k.seconds()
		}()
	}
	wg.Wait()
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum / workers
}

// seconds runs the kernel once on a locked thread and returns the CPU
// time it took, which leaves out steal and time spent descheduled.
func (k *refKernel) seconds() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	k.sink += k.run()
	return threadCPUSeconds() - c0
}

func (k *refKernel) run() float64 {
	for i := range k.state {
		k.state[i] = 0
	}
	k.heap = k.heap[:0]
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 1000; i++ {
		k.push(refEvent{t: float64(next()%1000) / 1000, node: int(next() % refNodes)})
	}
	var acc float64
	for s := 0; s < refSteps; s++ {
		e := k.pop()
		b := e.node * 8
		for j := 0; j < 8; j++ {
			k.state[b+j] = k.state[b+j]*0.999 + math.Sqrt(float64(j)+e.t)
		}
		acc += k.state[b]
		k.push(refEvent{t: e.t + float64(next()%1000)/1e5, node: int(next() % refNodes)})
	}
	return acc
}

func (k *refKernel) push(e refEvent) {
	k.heap = append(k.heap, e)
	h := k.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (k *refKernel) pop() refEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	k.heap = h
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l].t < h[m].t {
			m = l
		}
		if r < n && h[r].t < h[m].t {
			m = r
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	return top
}
