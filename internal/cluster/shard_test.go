package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/fault"
	"progresscap/internal/trace"
)

// seriesSig renders a trace bit-exactly (%b floats), so two runs agree
// only if every point matches to the last mantissa bit.
func seriesSig(b *strings.Builder, s *trace.Series) {
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		fmt.Fprintf(b, "%d:%b|", p.T, p.V)
	}
	b.WriteByte('\n')
}

// managerSig flattens a Manager run into a bit-exact signature: every
// node's full engine result signature plus the job-level traces.
func managerSig(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d completed=%t energy=%b\n", res.Elapsed, res.Completed, res.TotalEnergyJ)
	seriesSig(&b, res.MinProgress)
	seriesSig(&b, res.MeanProgress)
	seriesSig(&b, res.BudgetTrace)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "node %s\n", n.Name())
		seriesSig(&b, n.CapTrace())
		b.WriteString(n.Result().Signature())
	}
	return b.String()
}

// leasedSig flattens a LeasedCluster run the same way, including the
// distributed-safety counters.
func leasedSig(res *LeasedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d completed=%t energy=%b work=%b overshoot=%b\n",
		res.Elapsed, res.Completed, res.TotalEnergyJ, res.WorkUnits, res.PeakOvershootW)
	fmt.Fprintf(&b, "failovers=%d grants=%d fenced=%d expired=%d undelivered=%d reverts=%d\n",
		res.Failovers, res.GrantsIssued, res.FencedGrants, res.ExpiredOnArrival,
		res.UndeliveredGrants, res.ExpiredReverts)
	seriesSig(&b, res.MinProgress)
	seriesSig(&b, res.MeanProgress)
	seriesSig(&b, res.BudgetTrace)
	seriesSig(&b, res.EnforcedTrace)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "node %s\n", n.Name())
		seriesSig(&b, n.CapTrace())
		b.WriteString(n.Result().Signature())
	}
	return b.String()
}

// shardCase runs a 6-node Manager job — heterogeneous silicon, a crash
// with recovery, a slowdown, a decaying budget — at the given worker
// count and returns its full signature.
func runManagerSharded(t *testing.T, workers int) string {
	t.Helper()
	m, err := NewManager(ProgressAware{Gain: 2}, DecayingBudget(700, 500, 10*time.Second),
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, 900), 0, 1),
		newNode(t, "n1", apps.LAMMPS(apps.DefaultRanks, 900), 1.15, 2),
		newNode(t, "n2", apps.LAMMPS(apps.DefaultRanks, 900), 0, 3),
		newNode(t, "n3", apps.LAMMPS(apps.DefaultRanks, 900), 1.3, 4),
		newNode(t, "n4", apps.LAMMPS(apps.DefaultRanks, 900), 0, 5),
		newNode(t, "n5", apps.LAMMPS(apps.DefaultRanks, 900), 0, 6),
	)
	if err != nil {
		t.Fatal(err)
	}
	m.SetNodeWorkers(workers)
	m.SetFaults(fault.NewInjector(fault.Plan{Nodes: map[string]fault.NodePlan{
		"n1": {CrashAt: 4 * time.Second, RecoverAt: 8 * time.Second},
		"n3": {SlowFactor: 0.6},
	}}))
	res, err := m.Run(12 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return managerSig(res)
}

func runLeasedSharded(t *testing.T, workers int) string {
	t.Helper()
	plan := fault.Plan{
		Nodes: map[string]fault.NodePlan{
			"n1": {CrashAt: 5 * time.Second, RecoverAt: 9 * time.Second},
		},
		Managers: map[string]fault.ManagerPlan{
			PrimaryManager: {KillAt: 6 * time.Second},
		},
	}
	cfg := LeasedConfig{
		Policy:      EqualSplit{},
		Budget:      ConstantBudget(leasedBudgetW),
		Faults:      fault.NewInjector(plan),
		NodeWorkers: workers,
	}
	lc, err := NewLeasedCluster(cfg,
		newLeasedTestNode(t, "n0", 1),
		newLeasedTestNode(t, "n1", 2),
		newLeasedTestNode(t, "n2", 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lc.Run(14 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return leasedSig(res)
}

// TestClusterParallelDeterminism is the tentpole's proof: serial and
// sharded stepping produce byte-identical result signatures at 1, 2,
// and 8 workers, for both the plain Manager and the replicated
// LeasedCluster, under active fault plans. It runs under -race too —
// the schedule varies there, the signatures must not.
func TestClusterParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	mgr := map[int]string{}
	for _, w := range []int{1, 2, 8} {
		mgr[w] = runManagerSharded(t, w)
	}
	if mgr[2] != mgr[1] || mgr[8] != mgr[1] {
		t.Fatal("Manager signatures diverge across worker counts")
	}
	leased := map[int]string{}
	for _, w := range []int{1, 2, 8} {
		leased[w] = runLeasedSharded(t, w)
	}
	if leased[2] != leased[1] || leased[8] != leased[1] {
		t.Fatal("LeasedCluster signatures diverge across worker counts")
	}
}

// TestEpochSeriesAligned pins the trace-timestamp contract: within one
// epoch, the budget in force, the caps programmed, and the progress
// measured are all stamped on the same instant — the epoch's end.
func TestEpochSeriesAligned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	m, err := NewManager(EqualSplit{}, ConstantBudget(300),
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, 900), 0, 1),
		newNode(t, "n1", apps.LAMMPS(apps.DefaultRanks, 900), 0, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 5
	for i := 0; i < epochs; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < epochs; i++ {
		want := time.Duration(i+1) * Epoch
		if got := res.BudgetTrace.At(i).T; got != want {
			t.Fatalf("budget epoch %d stamped %v, want %v", i, got, want)
		}
		if got := res.MinProgress.At(i).T; got != want {
			t.Fatalf("min-progress epoch %d stamped %v, want %v", i, got, want)
		}
		if got := res.MeanProgress.At(i).T; got != want {
			t.Fatalf("mean-progress epoch %d stamped %v, want %v", i, got, want)
		}
		for _, n := range res.Nodes {
			if got := n.CapTrace().At(i).T; got != want {
				t.Fatalf("%s cap epoch %d stamped %v, want %v", n.Name(), i, got, want)
			}
		}
	}

	lc := newLeasedTestCluster(t, fault.Plan{})
	stepEpochs(t, lc, epochs)
	lres, err := lc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < epochs; i++ {
		want := time.Duration(i+1) * Epoch
		if got := lres.BudgetTrace.At(i).T; got != want {
			t.Fatalf("leased budget epoch %d stamped %v, want %v", i, got, want)
		}
		if got := lres.EnforcedTrace.At(i).T; got != want {
			t.Fatalf("leased enforced epoch %d stamped %v, want %v", i, got, want)
		}
		if got := lres.MinProgress.At(i).T; got != want {
			t.Fatalf("leased min-progress epoch %d stamped %v, want %v", i, got, want)
		}
	}

	// System: each job's granted budget is stamped at the end of the
	// system epoch it was in force for, and carries the budget its
	// manager recorded for that epoch. The job arriving at epoch 0 runs
	// on the system clock, so its stamps match its manager's exactly.
	early := newManagerForJob(t, 900, 1, 1)
	late := newManagerForJob(t, 900, 11, 1)
	sys, err := NewSystem(300,
		NewSystemJob("early", 1, 60, 0, early),
		NewSystemJob("late", 2, 60, 2, late))
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.Run(epochs * Epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range sys.jobs {
		bt, mbt := j.BudgetTrace(), results[j.Name].BudgetTrace
		if bt.Len() != epochs-j.StartEpoch || mbt.Len() != bt.Len() {
			t.Fatalf("job %s: %d system budgets, %d manager budgets, want %d",
				j.Name, bt.Len(), mbt.Len(), epochs-j.StartEpoch)
		}
		for i := 0; i < bt.Len(); i++ {
			want := time.Duration(j.StartEpoch+i+1) * Epoch
			if got := bt.At(i).T; got != want {
				t.Fatalf("job %s budget %d stamped %v, want %v", j.Name, i, got, want)
			}
			if bt.At(i).V != mbt.At(i).V {
				t.Fatalf("job %s budget %d: system granted %v W, manager recorded %v W",
					j.Name, i, bt.At(i).V, mbt.At(i).V)
			}
			if j.StartEpoch == 0 && mbt.At(i).T != want {
				t.Fatalf("job %s manager budget %d stamped %v, want %v", j.Name, i, mbt.At(i).T, want)
			}
		}
	}
}

// TestShardPoolErrorOrder proves error reporting is schedule-
// independent: whichever shard finishes first, the error returned is
// the failing node with the lowest index.
func TestShardPoolErrorOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := &shardPool{workers: workers}
		err := p.run(16, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("node %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "node 3 failed" {
			t.Fatalf("workers=%d: err = %v, want node 3 failed", workers, err)
		}
	}
}

// TestShardPoolCoverage proves every index runs exactly once at any
// worker count, including the degenerate shapes (more workers than
// nodes, zero nodes, workers <= 0).
func TestShardPoolCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 64} {
		for _, n := range []int{0, 1, 2, 5, 16, 33} {
			p := &shardPool{workers: workers}
			hits := make([]int32, n)
			if err := p.run(n, func(i int) error {
				hits[i]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
			if n > 0 && p.stats.Epochs != 1 {
				t.Fatalf("stats.Epochs = %d", p.stats.Epochs)
			}
		}
	}
}

func TestShardStatsMerge(t *testing.T) {
	a := ShardStats{Epochs: 2, Shards: 4, PeakWorkers: 3, BarrierWait: time.Millisecond}
	a.Merge(ShardStats{Epochs: 5, Shards: 2, PeakWorkers: 6, BarrierWait: time.Millisecond})
	want := ShardStats{Epochs: 7, Shards: 4, PeakWorkers: 6, BarrierWait: 2 * time.Millisecond}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
}

func TestShardPoolSerialFastPathStopsEarly(t *testing.T) {
	var calls int
	p := &shardPool{workers: 1}
	err := p.run(10, func(i int) error {
		calls++
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || calls != 3 {
		t.Fatalf("serial path ran %d calls (err %v), want 3", calls, err)
	}
}
