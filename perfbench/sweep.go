package main

import (
	"fmt"

	"progresscap/internal/engine"
	"progresscap/internal/experiments"
	"progresscap/internal/policy"
)

// sweepCell is one run of the sweep, submitted through the Runner.
type sweepCell struct {
	name string
	spec experiments.RunSpec
	res  *engine.Result
	err  error
}

// sweep is the cmd/experiments pattern: a Runner at parallel = workers
// with prefix forking and invariants on, running Step and Linear-rate
// ladders whose cells share prefixes, plus repeated baseline cells that
// the memo serves. Each ladder's donor completes before its dependants
// are queued, so every dependant finds the same pooled prefix on every
// run and the fork hits repeat exactly.
type sweep struct {
	cfg     config
	runner  *experiments.Runner
	donors  []*sweepCell // first cell of each ladder, and the baselines
	deps    []*sweepCell // the rest of each ladder
	repeats []*sweepCell // baseline cells asked for again

	firstSigs  map[string]string // cell name -> signature, first repetition
	firstStats experiments.RunnerStats
	stats      experiments.RunnerStats
}

func newSweep(cfg config) bench { return &sweep{cfg: cfg} }

// sweepApps are the apps whose ladders the sweep runs.
var sweepApps = []string{"LAMMPS", "STREAM", "AMG"}

// setup builds the run specs and a fresh Runner, so that no repetition
// finds the memo or the fork pool filled by an earlier one.
func (s *sweep) setup(*tracer) error {
	s.runner = experiments.NewRunner(workers)
	horizon := 12 * s.cfg.scale
	half := virtual(horizon / 2)
	byName := map[string]app{}
	for _, a := range characterizable() {
		byName[a.name] = a
	}
	for i, name := range sweepApps {
		mk := byName[name].build(horizon)
		spec := func(sch policy.Scheme) experiments.RunSpec {
			return experiments.RunSpec{Make: mk, Scheme: sch, Seed: mixSeed(s.cfg.seed, i),
				MaxSeconds: horizon, Invariants: true, Forking: true}
		}
		add := func(list *[]*sweepCell, label string, sch policy.Scheme) {
			*list = append(*list, &sweepCell{name: name + "/" + label, spec: spec(sch)})
		}
		add(&s.donors, "baseline", nil)
		for k := 0; k < 2; k++ {
			add(&s.repeats, "baseline", nil)
		}
		for k, low := range []float64{60, 70, 80, 90, 100, 110, 120, 130} {
			list := &s.deps
			if k == 0 {
				list = &s.donors
			}
			add(list, fmt.Sprintf("step-%gW", low), policy.Step{HighW: 140, LowW: low, HighFor: half, LowFor: half})
		}
		for k, rate := range []float64{5, 10, 15, 20, 30, 45} {
			list := &s.deps
			if k == 0 {
				list = &s.donors
			}
			add(list, fmt.Sprintf("linear-%gWps", rate), policy.Linear{Delay: half, StartW: 150, MinW: 60, RateWPerSec: rate})
		}
	}
	return nil
}

func (s *sweep) release() { s.runner, s.donors, s.deps, s.repeats = nil, nil, nil, nil }

// run submits the donors, waits for them, then submits and collects the
// dependants and the repeated baselines. A cell's span runs from its
// submission to its result.
func (s *sweep) run(tr *tracer) (float64, error) {
	var vs float64
	var firstErr error
	batch := func(cells []*sweepCell, prefetch bool) {
		spans := make([]int, len(cells))
		for i, c := range cells {
			spans[i] = tr.begin("experiments.cell", c.name, 0)
			if prefetch {
				id := tr.begin("experiments.Prefetch", c.name, spans[i])
				s.runner.Prefetch(c.spec)
				tr.end(id)
			}
		}
		for i, c := range cells {
			id := tr.begin("experiments.Do", c.name, spans[i])
			c.res, c.err = s.runner.Do(c.spec)
			tr.end(id)
			tr.end(spans[i])
			if c.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", c.name, c.err)
			}
			if c.res != nil {
				vs += c.spec.MaxSeconds
			}
		}
	}
	batch(s.donors, true)
	batch(s.deps, true)
	batch(s.repeats, false)
	s.stats = s.runner.Stats()
	if tr != nil {
		tr.note(0, "experiments.fork_hits", float64(s.stats.ForkHits))
		tr.note(0, "experiments.fork_runs", float64(s.stats.ForkRuns))
		tr.note(0, "experiments.fork_skipped_s", float64(s.stats.ForkSkippedSec))
		tr.note(0, "experiments.delivered_s", vs)
		// Per-repetition counts, not sums over a time-dependent number
		// of repetitions.
		tr.peak("experiments.memo_hits", float64(s.stats.CacheHits))
		tr.peak("experiments.executed", float64(s.stats.Executed))
	}
	return vs, firstErr
}

func (s *sweep) cells() []*sweepCell {
	return append(append(append([]*sweepCell(nil), s.donors...), s.deps...), s.repeats...)
}

// check counts every delivered cell, requires the runner's fork and memo
// counts to repeat those of the first repetition, and digests the
// signatures.
func (s *sweep) check(ck *checker) string {
	var sigs []string
	first := s.firstSigs == nil
	if first {
		s.firstSigs = map[string]string{}
		s.firstStats = s.stats
	}
	for _, c := range s.cells() {
		ck.expect(c.err == nil && c.res != nil, "%s: %v", c.name, c.err)
		if c.res == nil {
			continue
		}
		sig := c.res.Signature()
		sigs = append(sigs, sig)
		if first {
			s.firstSigs[c.name] = sig
		}
	}
	a, b := s.stats, s.firstStats
	ck.expect(a.ForkHits == b.ForkHits && a.ForkRuns == b.ForkRuns && a.ForkSkippedSec == b.ForkSkippedSec &&
		a.CacheHits == b.CacheHits && a.Executed == b.Executed,
		"runner counts %+v differ from the first repetition's %+v", a, b)
	return digestOf(sigs)
}

// finish re-runs every distinct cell from scratch on a non-forking
// Runner, outside the timed region; each must match its forked result
// signature for signature.
func (s *sweep) finish(ck *checker, q *quality) {
	scratch := experiments.NewRunner(workers)
	cells := append(append([]*sweepCell(nil), s.donors...), s.deps...)
	for _, c := range cells {
		spec := c.spec
		spec.Forking = false
		scratch.Prefetch(spec)
	}
	for _, c := range cells {
		spec := c.spec
		spec.Forking = false
		res, err := scratch.Do(spec)
		ck.op(c.name+": scratch re-run", err)
		if err == nil {
			ck.expect(res.Signature() == s.firstSigs[c.name], "%s: forked result differs from scratch", c.name)
		}
	}
	st := s.firstStats
	q.lines = append(q.lines, fmt.Sprintf("  runner: %d executed, fork hits %d of %d forking runs, %d virtual s skipped, %d memo hits",
		st.Executed, st.ForkHits, st.ForkRuns, st.ForkSkippedSec, st.CacheHits))
}
