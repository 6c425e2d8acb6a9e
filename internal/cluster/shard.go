package cluster

// Sharded node advancement: the intra-epoch parallelism layer.
//
// Both delivery strategies (Manager.Step, LeasedCluster.Step) decide
// caps, deliver them, and run watchdog/feedback serially — those touch
// shared policy, lease, and journal state. But advancing the node engines
// through the epoch, the epoch core's one advance step (core.advance),
// is embarrassingly parallel: each engine is a fully
// self-contained plant (its own device, bus, monitor, fault plan, RNG),
// so engines never share mutable state and the schedule cannot leak
// into any simulation result. The shard pool below fans those Advance
// calls across a bounded worker set — one contiguous shard of nodes per
// worker — with a barrier at the epoch boundary, and collects per-node
// errors by index so even failure output is reported in node order,
// independent of which shard finished first.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardStats aggregates the shard pool's work across epochs: how many
// epochs went through the pool, the widest fan-out used, the most
// shards ever observed running simultaneously, and the cumulative
// straggler time — how long finished shards sat at epoch barriers
// waiting for the slowest one.
type ShardStats struct {
	Epochs      int
	Shards      int
	PeakWorkers int
	BarrierWait time.Duration
}

// Merge folds another stats block into s (counters add, high-water
// marks take the max) — how per-manager pools roll up into a suite
// summary.
func (s *ShardStats) Merge(o ShardStats) {
	s.Epochs += o.Epochs
	if o.Shards > s.Shards {
		s.Shards = o.Shards
	}
	if o.PeakWorkers > s.PeakWorkers {
		s.PeakWorkers = o.PeakWorkers
	}
	s.BarrierWait += o.BarrierWait
}

// shardPool fans independent per-node work across at most workers
// goroutines. workers <= 0 means GOMAXPROCS; 1 means the plain serial
// loop with zero goroutines and zero synchronization.
type shardPool struct {
	workers int
	stats   ShardStats
}

// resolve returns the shard count for n nodes.
func (p *shardPool) resolve(n int) int {
	w := p.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// run executes fn(i) for every i in [0, n) and returns the first error
// in node-index order.
//
// Determinism contract: fn must touch only state owned by node i, and
// must not read shared mutable state written by any other fn(j). Under
// that contract the execution schedule cannot influence any simulation
// result — only wall time changes — so results are byte-identical at
// every worker count. Error paths are the one place worker counts can
// diverge observably: a shard stops at its first error while sibling
// shards finish their current epoch, whereas the serial loop stops
// immediately. Both report the same (first-by-index) error and the
// caller aborts the run, so no divergent state is ever observed.
func (p *shardPool) run(n int, fn func(i int) error) error {
	w := p.resolve(n)
	p.stats.Epochs++
	if w > p.stats.Shards {
		p.stats.Shards = w
	}
	if w == 1 {
		if p.stats.PeakWorkers < 1 {
			p.stats.PeakWorkers = 1
		}
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	ends := make([]time.Time, w)
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := s*n/w, (s+1)*n/w
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			if r := running.Add(1); r > peak.Load() {
				// Benign race on the max: CAS-loop so the larger wins.
				for {
					old := peak.Load()
					if r <= old || peak.CompareAndSwap(old, r) {
						break
					}
				}
			}
			for i := lo; i < hi; i++ {
				if errs[i] = fn(i); errs[i] != nil {
					break
				}
			}
			running.Add(-1)
			ends[s] = time.Now()
		}(s, lo, hi)
	}
	wg.Wait()

	var last time.Time
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	for _, e := range ends {
		p.stats.BarrierWait += last.Sub(e)
	}
	if pk := int(peak.Load()); pk > p.stats.PeakWorkers {
		p.stats.PeakWorkers = pk
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
