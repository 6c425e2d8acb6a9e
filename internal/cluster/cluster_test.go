package cluster

import (
	"fmt"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/workload"
)

// newNode builds a node running the workload, optionally with a power
// model scaled by ineff (>1 = less efficient silicon, the node
// variability the paper cites from Rountree et al.).
func newNode(t *testing.T, name string, w *workload.Workload, ineff float64, seed uint64) *Node {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	if ineff != 0 {
		cfg.Power.CoreDynMaxW *= ineff
	}
	e, err := engine.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return NewNode(name, e)
}

func TestEqualSplitDividesAmongAlive(t *testing.T) {
	nodes := []NodeStatus{
		{Name: "a"}, {Name: "b", Done: true}, {Name: "c"},
	}
	caps := EqualSplit{}.Divide(120, nodes)
	if caps[0] != 60 || caps[1] != 0 || caps[2] != 60 {
		t.Fatalf("caps = %v", caps)
	}
	if caps := (EqualSplit{}).Divide(100, []NodeStatus{{Done: true}}); caps[0] != 0 {
		t.Fatal("all-done division nonzero")
	}
}

func TestProgressAwareFavorsLaggards(t *testing.T) {
	nodes := []NodeStatus{
		{Name: "fast", Rate: 10, Baseline: 10}, // at baseline
		{Name: "slow", Rate: 4, Baseline: 10},  // 40% of baseline
	}
	caps := ProgressAware{}.Divide(200, nodes)
	if caps[1] <= caps[0] {
		t.Fatalf("laggard got %v, leader %v", caps[1], caps[0])
	}
	if caps[0]+caps[1] > 200+1e-9 {
		t.Fatalf("over-committed: %v", caps)
	}
}

func TestProgressAwareNoBaselineNeutral(t *testing.T) {
	nodes := []NodeStatus{{Name: "a"}, {Name: "b"}}
	caps := ProgressAware{}.Divide(100, nodes)
	if caps[0] != caps[1] {
		t.Fatalf("no-feedback division unequal: %v", caps)
	}
}

func TestClampCaps(t *testing.T) {
	caps := []float64{80, 80}
	clampCaps(caps, 120)
	if caps[0] != 60 || caps[1] != 60 {
		t.Fatalf("clamped = %v", caps)
	}
	caps = []float64{30, 40}
	clampCaps(caps, 120) // under budget: untouched
	if caps[0] != 30 || caps[1] != 40 {
		t.Fatalf("under-budget caps changed: %v", caps)
	}
}

func TestBudgetFuncs(t *testing.T) {
	c := ConstantBudget(300)
	if c(0) != 300 || c(time.Hour) != 300 {
		t.Fatal("constant budget varies")
	}
	d := DecayingBudget(400, 200, 10*time.Second)
	if d(0) != 400 || d(5*time.Second) != 300 || d(10*time.Second) != 200 || d(time.Minute) != 200 {
		t.Fatalf("decaying budget wrong: %v %v %v", d(0), d(5*time.Second), d(10*time.Second))
	}
}

func TestManagerValidation(t *testing.T) {
	n := newNode(t, "a", apps.LAMMPS(apps.DefaultRanks, 50), 0, 1)
	if _, err := NewManager(nil, ConstantBudget(100), n); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewManager(EqualSplit{}, nil, n); err == nil {
		t.Fatal("nil budget accepted")
	}
	if _, err := NewManager(EqualSplit{}, ConstantBudget(100)); err == nil {
		t.Fatal("no nodes accepted")
	}
	n2 := newNode(t, "a", apps.LAMMPS(apps.DefaultRanks, 50), 0, 2)
	if _, err := NewManager(EqualSplit{}, ConstantBudget(100), n, n2); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestManagerRunsJobToCompletion(t *testing.T) {
	m, err := NewManager(EqualSplit{}, ConstantBudget(300),
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, 200), 0, 1),
		newNode(t, "n1", apps.LAMMPS(apps.DefaultRanks, 200), 0, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("job incomplete")
	}
	if res.TotalEnergyJ <= 0 {
		t.Fatal("no energy accounted")
	}
	for _, n := range res.Nodes {
		if n.Result() == nil || !n.Result().Completed {
			t.Fatalf("node %s incomplete", n.Name())
		}
		// Manager-programmed caps respected: skip calibration epochs.
		vals := n.Result().PowerTrace.Values()
		for i := 3; i < len(vals)-1; i++ {
			if vals[i] > 150*1.06 { // 300 W split two ways
				t.Fatalf("node %s window %d power %v exceeds 150 W share", n.Name(), i, vals[i])
			}
		}
	}
	if res.MinProgress.Len() == 0 {
		t.Fatal("no job progress recorded")
	}
}

func TestDecayingBudgetDegradesProgress(t *testing.T) {
	m, err := NewManager(EqualSplit{}, DecayingBudget(400, 160, 20*time.Second),
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, 900), 0, 1),
		newNode(t, "n1", apps.LAMMPS(apps.DefaultRanks, 900), 0, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(40 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	vals := res.MeanProgress.Values()
	if len(vals) < 20 {
		t.Fatalf("only %d epochs", len(vals))
	}
	early := (vals[3] + vals[4] + vals[5]) / 3
	late := (vals[len(vals)-3] + vals[len(vals)-2] + vals[len(vals)-1]) / 3
	if late >= early*0.9 {
		t.Fatalf("progress did not degrade with the budget: early %v, late %v", early, late)
	}
}

// TestProgressAwareBeatsEqualSplit is the headline cluster result: with
// heterogeneous silicon (one node needs ~15% more power for the same
// frequency), shifting power toward the progress laggard raises the
// job's synchronous (minimum) progress — the capability the paper's
// online progress metric exists to enable.
func TestProgressAwareBeatsEqualSplit(t *testing.T) {
	const budget = 260 // tight enough that division matters
	runWith := func(p Policy) float64 {
		m, err := NewManager(p, ConstantBudget(budget),
			newNode(t, "good", apps.LAMMPS(apps.DefaultRanks, 900), 1.0, 1),
			newNode(t, "leaky", apps.LAMMPS(apps.DefaultRanks, 900), 1.15, 2),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanMinProgress()
	}
	equal := runWith(EqualSplit{})
	aware := runWith(ProgressAware{})
	if aware <= equal*1.01 {
		t.Fatalf("progress-aware (%v) did not beat equal split (%v)", aware, equal)
	}
}

func TestThroughputFavorsEfficientNodes(t *testing.T) {
	nodes := []NodeStatus{
		{Name: "efficient", Rate: 9, Baseline: 10, PowerW: 100},
		{Name: "leaky", Rate: 9, Baseline: 10, PowerW: 140},
	}
	caps := Throughput{}.Divide(240, nodes)
	if caps[0] <= caps[1] {
		t.Fatalf("efficient node got %v, leaky got %v", caps[0], caps[1])
	}
	if caps[0]+caps[1] > 240+1e-9 {
		t.Fatalf("over-committed: %v", caps)
	}
}

func TestThroughputVsProgressAwareTradeoff(t *testing.T) {
	// On heterogeneous silicon, throughput division should deliver at
	// least as much mean progress as progress-aware (which sacrifices
	// mean for the minimum).
	const budget = 280
	run := func(p Policy) (minP, meanP float64) {
		m, err := NewManager(p, ConstantBudget(budget),
			newNode(t, "good", apps.LAMMPS(apps.DefaultRanks, 900), 1.0, 1),
			newNode(t, "leaky", apps.LAMMPS(apps.DefaultRanks, 900), 1.2, 2),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(25 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var meanVals []float64
		for _, v := range res.MeanProgress.Values()[2:] {
			meanVals = append(meanVals, v)
		}
		var mean float64
		for _, v := range meanVals {
			mean += v
		}
		return res.MeanMinProgress(), mean / float64(len(meanVals))
	}
	_, meanThroughput := run(Throughput{})
	minAware, meanAware := run(ProgressAware{Gain: 3})
	if meanThroughput < meanAware*0.98 {
		t.Fatalf("throughput policy mean %v clearly below progress-aware mean %v",
			meanThroughput, meanAware)
	}
	_ = minAware
}

func TestManagerTimeLimit(t *testing.T) {
	m, err := NewManager(EqualSplit{}, ConstantBudget(300),
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, 100000), 0, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("endless workload reported complete")
	}
	if res.Elapsed > 6*time.Second {
		t.Fatalf("elapsed %v past limit", res.Elapsed)
	}
}

// TestManagerRegisterCapsWithinBudget pins the register-level budget
// invariant of the Manager: the caps the registers actually latch —
// decoded back from PKG_POWER_LIMIT — sum to no more than the budget
// after every capped epoch, for every division policy. The budget is
// chosen so that the per-node shares are not multiples of the register
// power unit.
func TestManagerRegisterCapsWithinBudget(t *testing.T) {
	const (
		nodes   = 64
		epochs  = 5
		budgetW = 53.34 * nodes
	)
	policies := []Policy{
		EqualSplit{},
		ProgressAware{Gain: 3},
		Throughput{},
		BinPackSortedWatts{},
		MaxGreedyMins{},
	}
	for _, pol := range policies {
		t.Run(pol.Name(), func(t *testing.T) {
			ns := make([]*Node, nodes)
			for i := range ns {
				// The coarse fleet plant: 1 ms tick, 20 ms RAPL control.
				cfg := engine.DefaultConfig()
				cfg.Seed = uint64(i)*7919 + 1
				cfg.Tick = time.Millisecond
				cfg.RAPL.ControlPeriod = 20 * time.Millisecond
				cfg.RAPL.DemandTau = 100 * time.Millisecond
				cfg.Power.CoreDynMaxW *= 1 + 0.3*float64(i%7)/7
				e, err := engine.New(cfg, apps.LAMMPS(4, 1000))
				if err != nil {
					t.Fatal(err)
				}
				ns[i] = NewNode(fmt.Sprintf("n%02d", i), e)
			}
			m, err := NewManager(pol, ConstantBudget(budgetW), ns...)
			if err != nil {
				t.Fatal(err)
			}
			for ep := 0; ep < epochs; ep++ {
				if _, err := m.Step(); err != nil {
					t.Fatal(err)
				}
				if ep < m.UncappedEpochs {
					continue
				}
				var latched float64
				for i, s := range m.Statuses() {
					pl1, err := ns[i].eng.Controller().Limit()
					if err != nil {
						t.Fatal(err)
					}
					if pl1.Watts != s.CapW {
						t.Fatalf("epoch %d: %s register holds %v W, status cap %v W", ep, s.Name, pl1.Watts, s.CapW)
					}
					latched += pl1.Watts
				}
				if latched > budgetW {
					t.Fatalf("epoch %d: registers latch %.4f W over the %.2f W budget", ep, latched, budgetW)
				}
			}
		})
	}
}
