package main

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/cluster"
	"progresscap/internal/engine"
	"progresscap/internal/experiments"
	"progresscap/internal/msr"
)

// fleet steps one 256-node fleet on the coarse fleet plant through
// cluster.Manager (progress-aware division) and a second, identical one
// through cluster.LeasedCluster (journaled lease grants), both sharded
// over workers node goroutines. After every capped epoch the caps must
// stay within the budget, and every Manager node's register must hold
// the cap the Manager divided for it.
type fleet struct {
	cfg    config
	nodes  int
	epochs int

	engines []*engine.Engine // the Manager's nodes, then the leased ones
	mgr     *cluster.Manager
	leased  *cluster.LeasedCluster

	mres *cluster.Result
	lres *cluster.LeasedResult
	// capSums holds Σ caps after each capped epoch: the Manager's
	// division (Statuses CapW), then the leased registers (EnforcedCapW).
	capSums []float64
	// regErrs holds, per capped Manager epoch, the first register that
	// does not hold its node's divided cap, or nil.
	regErrs []error
	// overcommitW is the most that the Manager's register caps summed
	// over the budget in any epoch: the register rounds each cap to the
	// nearest power unit, where the leased grants floor.
	overcommitW float64
	err         error
}

func newFleet(cfg config) bench {
	return &fleet{cfg: cfg, nodes: max(4, int(256*cfg.scale)), epochs: max(3, int(8*cfg.scale))}
}

// newNodeEngine builds node i the way experiments.NewFleetManager does
// (which cannot be used as is: it neither times each engine.New nor
// builds leased nodes):
// 4-rank LAMMPS, 1 ms tick, 20 ms RAPL control, and a deterministic
// silicon-inefficiency spread over [1.0, 1.3).
func (f *fleet) newNodeEngine(tr *tracer, i int, group string) (*engine.Engine, error) {
	cfg := engine.DefaultConfig()
	cfg.Seed = f.cfg.seed + uint64(i)*7919
	cfg.Tick = time.Millisecond
	cfg.RAPL.ControlPeriod = 20 * time.Millisecond
	cfg.RAPL.DemandTau = 100 * time.Millisecond
	cfg.Power.CoreDynMaxW *= 1 + 0.3*float64((i*2654435761)%997)/997
	w := apps.LAMMPS(4, f.epochs*40+400)
	id := tr.begin("engine.New", group, 0)
	e, err := engine.New(cfg, w)
	tr.end(id)
	return e, err
}

func (f *fleet) budgetW() float64 { return experiments.FleetBudgetPerNodeW * float64(f.nodes) }

func (f *fleet) release() {
	f.engines, f.mgr, f.leased, f.mres, f.lres, f.capSums, f.regErrs, f.overcommitW, f.err = nil, nil, nil, nil, nil, nil, nil, 0, nil
}

func (f *fleet) setup(tr *tracer) error {
	nodes := make([]*cluster.Node, f.nodes)
	for i := range nodes {
		e, err := f.newNodeEngine(tr, i, "fleet.setup")
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		f.engines = append(f.engines, e)
		nodes[i] = cluster.NewNode(fmt.Sprintf("f%04d", i), e)
	}
	m, err := cluster.NewManager(cluster.ProgressAware{Gain: 3}, cluster.ConstantBudget(f.budgetW()), nodes...)
	if err != nil {
		return err
	}
	m.SetNodeWorkers(workers)
	f.mgr = m

	lnodes := make([]*cluster.LeasedNode, f.nodes)
	for i := range lnodes {
		e, err := f.newNodeEngine(tr, i, "fleet.setup")
		if err != nil {
			return fmt.Errorf("leased node %d: %w", i, err)
		}
		f.engines = append(f.engines, e)
		lnodes[i] = cluster.NewLeasedNode(fmt.Sprintf("l%04d", i), e)
	}
	lc, err := cluster.NewLeasedCluster(cluster.LeasedConfig{
		Policy:      cluster.ProgressAware{Gain: 3},
		Budget:      cluster.ConstantBudget(f.budgetW()),
		NodeWorkers: workers,
	}, lnodes...)
	if err != nil {
		return err
	}
	f.leased = lc
	return nil
}

// run steps both fleets, reading the caps after every capped epoch (two
// register reads per node against a 256-node Step).
func (f *fleet) run(tr *tracer) (float64, error) {
	f.err = f.steps(tr)
	return f.delivered(), f.err
}

func (f *fleet) steps(tr *tracer) error {
	for ep := 0; ep < f.epochs; ep++ {
		group := fmt.Sprintf("epoch%d", ep)
		id := tr.begin("cluster.Manager.Step", group, 0)
		_, err := f.mgr.Step()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("manager epoch %d: %w", ep, err)
		}
		if ep < f.mgr.UncappedEpochs {
			continue // calibration: the Manager leaves every node uncapped
		}
		var divided, latched float64
		var regErr error
		for i, s := range f.mgr.Statuses() {
			divided += s.CapW
			capW, err := registerCapW(f.engines[i])
			if err != nil {
				return fmt.Errorf("manager epoch %d: %w", ep, err)
			}
			latched += capW
			if regErr == nil && math.Abs(capW-s.CapW) > msr.DefaultUnits().PowerUnit()/2+1e-9 {
				regErr = fmt.Errorf("manager epoch %d: %s register holds %.4f W, divided cap %.4f W", ep, s.Name, capW, s.CapW)
			}
		}
		f.capSums = append(f.capSums, divided)
		f.regErrs = append(f.regErrs, regErr)
		f.overcommitW = max(f.overcommitW, latched-f.budgetW())
	}
	for ep := 0; ep < f.epochs; ep++ {
		group := fmt.Sprintf("epoch%d", ep)
		id := tr.begin("cluster.LeasedCluster.Step", group, 0)
		_, err := f.leased.Step()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("leased epoch %d: %w", ep, err)
		}
		id = tr.begin("cluster.LeasedCluster.EnforcedCapW", group, 0)
		sum, err := f.leased.EnforcedCapW(f.leased.Elapsed())
		tr.end(id)
		if err != nil {
			return fmt.Errorf("leased epoch %d: enforced cap: %w", ep, err)
		}
		f.capSums = append(f.capSums, sum)
	}
	var err error
	id := tr.begin("cluster.Manager.Finish", "finish", 0)
	f.mres, err = f.mgr.Finish()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("cluster.LeasedCluster.Finish", "finish", 0)
	f.lres, err = f.leased.Finish()
	tr.end(id)
	if err != nil {
		return err
	}
	if tr != nil {
		ms, ls := f.mgr.ShardStats(), f.leased.ShardStats()
		tr.note(0, "cluster.barrier_wait_ms", float64(ms.BarrierWait+ls.BarrierWait)/1e6)
		tr.peak("cluster.peak_workers", float64(max(ms.PeakWorkers, ls.PeakWorkers)))
		grants, _, _, err := f.leased.ReplayGrants()
		if err != nil {
			return fmt.Errorf("replaying the lease journal: %w", err)
		}
		tr.note(0, "lease.journaled_grants", float64(len(grants)))
		tr.note(0, "lease.epochs", float64(f.epochs))
		for _, e := range f.engines {
			w, r := e.Device().Counts()
			pub, drop := e.Bus().Stats()
			tr.note(0, "msr.reads", float64(r))
			tr.note(0, "msr.writes", float64(w))
			tr.note(0, "pubsub.published", float64(pub))
			tr.note(0, "pubsub.dropped", float64(drop))
		}
	}
	return nil
}

// registerCapW decodes the PL1 cap latched in an engine's
// PKG_POWER_LIMIT register; 0 when it is uncapped.
func registerCapW(e *engine.Engine) (float64, error) {
	raw, err := e.Device().Read(msr.PkgPowerLimit)
	if err != nil {
		return 0, err
	}
	units, err := e.Device().Read(msr.RaplPowerUnit)
	if err != nil {
		return 0, err
	}
	pl1, _ := msr.DecodePowerLimits(raw, msr.DecodeUnits(units))
	if !pl1.Enabled {
		return 0, nil
	}
	return pl1.Watts, nil
}

// delivered is the node-virtual-seconds both fleets stepped.
func (f *fleet) delivered() float64 {
	return 2 * float64(f.nodes) * float64(f.epochs) * cluster.Epoch.Seconds()
}

// check counts every epoch's budget check and both fleets' results, and
// digests the job results and every node's engine signature.
func (f *fleet) check(ck *checker) string {
	ck.op("fleet", f.err)
	for i, sum := range f.capSums {
		ck.expect(sum <= f.budgetW()+1e-6, "epoch check %d: caps sum to %.1f W over the %.1f W budget", i, sum, f.budgetW())
	}
	for _, err := range f.regErrs {
		ck.op("manager registers", err)
	}
	ck.expect(f.mres != nil && f.lres != nil, "fleet results missing")
	if f.mres == nil || f.lres == nil {
		return ""
	}
	ck.expect(f.lres.PeakOvershootW == 0, "leased overshoot %.2f W", f.lres.PeakOvershootW)
	parts := []string{
		fmt.Sprintf("manager %b %v %v", f.mres.TotalEnergyJ, f.mres.MinProgress.Values(), f.mres.MeanProgress.Values()),
		fmt.Sprintf("leased %b %b %v %v %d %d", f.lres.TotalEnergyJ, f.lres.WorkUnits,
			f.lres.MinProgress.Values(), f.lres.EnforcedTrace.Values(), f.lres.GrantsIssued, f.lres.ExpiredReverts),
	}
	for _, n := range f.mres.Nodes {
		parts = append(parts, n.Result().Signature())
	}
	for _, n := range f.lres.Nodes {
		parts = append(parts, n.Result().Signature())
	}
	return digestOf(parts)
}

func (f *fleet) finish(ck *checker, q *quality) {
	q.lines = append(q.lines, fmt.Sprintf("  fleet: %d nodes x %d epochs per loop, budget %.0f W", f.nodes, f.epochs, f.budgetW()),
		fmt.Sprintf("  fleet: manager register caps over the budget by up to %.4f W (round-to-nearest encoding)", f.overcommitW))
}
