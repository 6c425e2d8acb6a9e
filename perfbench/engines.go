package main

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/model"
	"progresscap/internal/policy"
	"progresscap/internal/stats"
	"progresscap/internal/workload"
)

// app is one of the paper's five characterizable applications (Table
// VI), built at its 24-rank single-node configuration the way the
// Table 6 and Fig 4 artifacts build it.
type app struct {
	name string
	// build returns a generator sized to run about secs virtual seconds
	// uncapped at full frequency.
	build func(secs float64) func() *workload.Workload
	// betaTarget is the paper's Table VI β, from apps.Registry.
	betaTarget float64
}

func characterizable() []app {
	targets := map[string]float64{}
	for _, info := range apps.Registry() {
		targets[info.Name] = info.BetaTarget
	}
	r := apps.DefaultRanks
	return []app{
		{"LAMMPS", func(s float64) func() *workload.Workload {
			return func() *workload.Workload { return apps.LAMMPS(r, int(s*20)) }
		}, targets["LAMMPS"]},
		{"AMG", func(s float64) func() *workload.Workload {
			return func() *workload.Workload { return apps.AMG(r, int(s*2.75)) }
		}, targets["AMG"]},
		{"QMCPACK", func(s float64) func() *workload.Workload {
			return func() *workload.Workload { return apps.QMCPACK(r, 1, 1, int(s*16)).SubsetPhase("dmc") }
		}, targets["QMCPACK"]},
		{"STREAM", func(s float64) func() *workload.Workload {
			return func() *workload.Workload { return apps.STREAM(r, int(s*16)) }
		}, targets["STREAM"]},
		{"OpenMC", func(s float64) func() *workload.Workload {
			return func() *workload.Workload { return apps.OpenMC(r, 1, int(s), 100000).SubsetPhase("active") }
		}, targets["OpenMC"]},
	}
}

// cell is one engine run driven from outside in one-virtual-second
// Advance chunks, with the engine invariant checker armed.
type cell struct {
	name    string
	app     int
	mhz     float64       // > 0: pinned at this frequency, RAPL manual
	scheme  policy.Scheme // nil and mhz == 0: uncapped
	capW    float64       // the constant cap of a Fig 4 ladder cell, else 0
	seed    uint64
	horizon time.Duration
	make    func() *workload.Workload

	eng *engine.Engine
	res *engine.Result
}

// engineBench runs a fixed list of cells serially, one engine at a time.
// node-capped and characterize differ only in their cells and in the
// fidelity figure they derive.
type engineBench struct {
	apps  []app
	cells []*cell
}

// setup builds every cell's workload and engine.
func (b *engineBench) setup(tr *tracer) error {
	for i, c := range b.cells {
		group := fmt.Sprintf("cell%d", i)
		cfg := engine.DefaultConfig()
		cfg.Seed = c.seed
		w := c.make()
		id := tr.begin("engine.New", group, 0)
		eng, err := engine.New(cfg, w)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		eng.EnableInvariants(engine.InvariantConfig{})
		c.eng, c.res = eng, nil
	}
	return nil
}

func (b *engineBench) release() {
	for _, c := range b.cells {
		c.eng, c.res = nil, nil
	}
}

// run drives every cell to its horizon (or completion) and collects its
// result.
func (b *engineBench) run(tr *tracer) (float64, error) {
	var vs float64
	for i, c := range b.cells {
		group := fmt.Sprintf("cell%d", i)
		root := tr.begin("cell", group, 0)
		res, err := c.drive(tr, group, root)
		tr.end(root)
		if err != nil {
			return vs, fmt.Errorf("%s: %w", c.name, err)
		}
		c.res = res
		vs += res.Elapsed.Seconds()
		if tr != nil {
			w, r := c.eng.Device().Counts()
			pub, drop := c.eng.Bus().Stats()
			tr.note(root, "msr.reads", float64(r))
			tr.note(root, "msr.writes", float64(w))
			tr.note(root, "pubsub.published", float64(pub))
			tr.note(root, "pubsub.dropped", float64(drop))
		}
	}
	return vs, nil
}

func (c *cell) drive(tr *tracer, group string, root int) (*engine.Result, error) {
	switch {
	case c.mhz > 0:
		id := tr.begin("engine.SetManualDVFS", group, root)
		c.eng.SetManualDVFS(c.mhz)
		tr.end(id)
	case c.scheme != nil:
		id := tr.begin("engine.SetScheme", group, root)
		err := c.eng.SetScheme(c.scheme)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	for c.eng.Clock().Now() < c.horizon {
		step := min(time.Second, c.horizon-c.eng.Clock().Now())
		id := tr.begin("engine.Advance", group, root)
		done, err := c.eng.Advance(step)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	id := tr.begin("engine.Finish", group, root)
	res, err := c.eng.Finish()
	tr.end(id)
	return res, err
}

// check counts every cell as one operation, failed on a missing result
// or any invariant violation, and digests the cells' signatures.
func (b *engineBench) check(ck *checker) string {
	sigs := make([]string, 0, len(b.cells))
	for _, c := range b.cells {
		ck.expect(c.res != nil, "%s: no result", c.name)
		v := c.eng.InvariantViolations()
		ck.expect(len(v) == 0, "%s: %d invariant violations, first %v", c.name, len(v), v)
		if c.res != nil {
			sigs = append(sigs, c.res.Signature())
		}
	}
	return digestOf(sigs)
}

// characterization is one app's §IV-A figures from its pinned runs.
type characterization struct {
	beta, mpo, rate, pkgW float64
}

// characterize derives β and MPO from the app's 3300 and 1600 MHz
// cells, and the uncapped rate and package power from the 3300 MHz run
// (or from base, when given), as the Table 6 artifact does.
func (b *engineBench) characterize(ck *checker, a int, base *cell) (characterization, bool) {
	var fast, slow *cell
	for _, c := range b.cells {
		if c.app == a && c.mhz == 3300 {
			fast = c
		}
		if c.app == a && c.mhz == 1600 {
			slow = c
		}
	}
	name := b.apps[a].name
	ok := fast != nil && slow != nil && fast.res != nil && slow.res != nil &&
		fast.res.Completed && slow.res.Completed
	ck.expect(ok, "%s: characterization runs missing or incomplete", name)
	if !ok {
		return characterization{}, false
	}
	if base == nil {
		base = fast
	}
	ch := characterization{
		beta: model.BetaFromTimes(fast.res.Elapsed.Seconds(), slow.res.Elapsed.Seconds(), 3300, 1600),
		mpo:  fast.res.Counters.MPO(),
		rate: stats.Mean(steadyRates(base.res, 1)),
		pkgW: stats.Mean(steadyValues(base.res.PowerTrace.Values(), 1)),
	}
	ck.expect(finite(ch.beta, ch.mpo) && ch.beta > 0 && ch.mpo > 0,
		"%s: β=%v MPO=%v not finite and positive", name, ch.beta, ch.mpo)
	return ch, true
}

// steadyRates drops the warm-up windows and the final partial window.
func steadyRates(res *engine.Result, skip int) []float64 {
	return steadyValues(res.Rates(), skip)
}

func steadyValues(vals []float64, skip int) []float64 {
	if len(vals) <= skip+1 {
		return vals
	}
	return vals[skip : len(vals)-1]
}

// virtual converts virtual seconds to a duration.
func virtual(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func mixSeed(seed uint64, i int) uint64 {
	return seed*1000003 + uint64(i)*7919
}

// nodeCapped is the Fig 4 setting: each app under a constant-cap ladder
// and the three Fig 3 dynamic schemes, on the capped RAPL path, plus
// its pinned characterization so the paper model can be evaluated.
func newNodeCapped(cfg config) bench {
	b := &nodeCapped{engineBench{apps: characterizable()}}
	secs := 8 * cfg.scale
	for a, ap := range b.apps {
		s := secs
		if ap.name == "OpenMC" {
			// OpenMC completes about one batch per second, so its capped
			// rate needs a longer measurement.
			s = max(2*secs, 8)
		}
		seed := mixSeed(cfg.seed, a)
		add := func(c *cell, mk func() *workload.Workload) {
			c.app, c.seed, c.make = a, seed, mk
			b.cells = append(b.cells, c)
		}
		// The pinned characterization is kept short, so that most of the
		// workload's virtual time runs with the RAPL loop live.
		pinned := ap.build(s / 2)
		add(&cell{name: ap.name + "/3300MHz", mhz: 3300, horizon: virtual(2 * s)}, pinned)
		add(&cell{name: ap.name + "/1600MHz", mhz: 1600, horizon: virtual(5 * s)}, pinned)
		mk := ap.build(s)
		for _, w := range nodeCappedLadder {
			add(&cell{name: fmt.Sprintf("%s/%gW", ap.name, w), scheme: policy.Constant{Watts: w}, capW: w, horizon: virtual(s)}, mk)
		}
		third := virtual(s / 3)
		add(&cell{name: ap.name + "/linear", horizon: virtual(s), scheme: policy.Linear{
			Delay: third, StartW: 160, MinW: 70, RateWPerSec: 90 / (s / 2)}}, mk)
		add(&cell{name: ap.name + "/step", horizon: virtual(s), scheme: policy.Step{
			HighW: policy.Uncapped, LowW: 90, HighFor: third, LowFor: third}}, mk)
		add(&cell{name: ap.name + "/jagged", horizon: virtual(s), scheme: policy.Jagged{
			StartW: 160, LowW: 80, FallFor: third, UncappedFor: third / 2}}, mk)
	}
	return b
}

// nodeCappedLadder is the Fig 4 package-cap ladder.
var nodeCappedLadder = []float64{160, 140, 120, 100, 80, 65}

type nodeCapped struct{ engineBench }

// finish computes model_err_pct: the paper model's predicted progress
// against the simulated steady rate, over every constant-cap cell.
func (b *nodeCapped) finish(ck *checker, q *quality) {
	var errs []float64
	for a, ap := range b.apps {
		ch, ok := b.characterize(ck, a, nil)
		if !ok {
			continue
		}
		params, err := model.FromBaseline(ch.beta, ch.rate, ch.pkgW)
		ck.op(ap.name+": model baseline", err)
		if err != nil {
			continue
		}
		for _, c := range b.cells {
			if c.app != a || c.capW == 0 || c.res == nil {
				continue
			}
			measured := stats.Mean(steadyRates(c.res, 2))
			predicted := params.PredictProgress(c.capW)
			ck.expect(finite(measured, predicted) && measured > 0,
				"%s: prediction %v against measured %v", c.name, predicted, measured)
			if measured > 0 {
				errs = append(errs, 100*math.Abs(predicted-measured)/measured)
			}
		}
		q.lines = append(q.lines, fmt.Sprintf("  %-8s β=%.3f (paper %.2f) MPO=%.3g", ap.name, ch.beta, ap.betaTarget, ch.mpo))
	}
	q.modelErrPct = stats.Mean(errs)
}

// characterize is §IV-A over long horizons: each app uncapped, and
// pinned at 3300 and 1600 MHz to completion. RAPL never actuates.
func newCharacterize(cfg config) bench {
	b := &characterizeBench{engineBench{apps: characterizable()}}
	secs := 60 * cfg.scale
	for a, ap := range b.apps {
		mk := ap.build(secs)
		seed := mixSeed(cfg.seed, a)
		for _, c := range []*cell{
			{name: ap.name + "/uncapped", horizon: virtual(2 * secs)},
			{name: ap.name + "/3300MHz", mhz: 3300, horizon: virtual(4 * secs)},
			{name: ap.name + "/1600MHz", mhz: 1600, horizon: virtual(10 * secs)},
		} {
			c.app, c.seed, c.make = a, seed, mk
			b.cells = append(b.cells, c)
		}
	}
	return b
}

type characterizeBench struct{ engineBench }

// finish computes beta_err_pct against the paper's Table VI.
func (b *characterizeBench) finish(ck *checker, q *quality) {
	var errs []float64
	for a, ap := range b.apps {
		var base *cell
		for _, c := range b.cells {
			if c.app == a && c.mhz == 0 {
				base = c
			}
		}
		ch, ok := b.characterize(ck, a, base)
		if !ok {
			continue
		}
		ck.expect(finite(ch.rate, ch.pkgW) && ch.rate > 0, "%s: uncapped rate %v", ap.name, ch.rate)
		errs = append(errs, 100*math.Abs(ch.beta-ap.betaTarget)/ap.betaTarget)
		q.lines = append(q.lines, fmt.Sprintf("  %-8s β=%.3f (paper %.2f) MPO=%.3g rate=%.4g/s pkg=%.1f W",
			ap.name, ch.beta, ap.betaTarget, ch.mpo, ch.rate, ch.pkgW))
	}
	q.betaErrPct = stats.Mean(errs)
}
