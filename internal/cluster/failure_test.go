package cluster

import (
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/fault"
)

func TestPoliciesSkipFailedNodes(t *testing.T) {
	nodes := []NodeStatus{
		{Name: "a", Rate: 9, Baseline: 10, PowerW: 100},
		{Name: "b", Rate: 9, Baseline: 10, PowerW: 100, Failed: true},
		{Name: "c", Rate: 9, Baseline: 10, PowerW: 100},
	}
	for _, p := range []Policy{EqualSplit{}, ProgressAware{}, Throughput{}} {
		caps := p.Divide(300, nodes)
		if caps[1] != 0 {
			t.Fatalf("%s allocated %v W to a failed node", p.Name(), caps[1])
		}
		if caps[0] != 150 || caps[2] != 150 {
			t.Fatalf("%s did not split the budget among survivors: %v", p.Name(), caps)
		}
	}
}

// TestNodeCrashDetectedAndRedistributed is the cluster-level acceptance
// scenario: one of three nodes dies mid-job, the watchdog fences it
// within failureEpochs, and its budget share flows to the survivors
// (minus the quarantine cap held on the dead node).
func TestNodeCrashDetectedAndRedistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	const budget = 360
	m, err := NewManager(EqualSplit{}, ConstantBudget(budget),
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, 900), 0, 1),
		newNode(t, "n1", apps.LAMMPS(apps.DefaultRanks, 900), 0, 2),
		newNode(t, "n2", apps.LAMMPS(apps.DefaultRanks, 900), 0, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := 8 * time.Second
	m.SetFaults(fault.NewInjector(fault.Plan{Nodes: map[string]fault.NodePlan{
		"n1": {CrashAt: crashAt},
	}}))
	res, err := m.Run(25 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	failed := m.FailedNodes()
	if len(failed) != 1 || failed[0] != "n1" {
		t.Fatalf("FailedNodes() = %v, want [n1]", failed)
	}

	// The fence must land within failureEpochs (+1 epoch of detection
	// latency: the crash happens mid-epoch, the cap is programmed at the
	// start of the next one).
	var crashed *Node
	for _, n := range res.Nodes {
		if n.Name() == "n1" {
			crashed = n
		}
	}
	fencedAt := time.Duration(-1)
	for i := 0; i < crashed.CapTrace().Len(); i++ {
		p := crashed.CapTrace().At(i)
		if p.V == DefaultQuarantineCapW {
			fencedAt = p.T
			break
		}
	}
	if fencedAt < 0 {
		t.Fatal("crashed node never quarantined")
	}
	deadline := crashAt + time.Duration(failureEpochs+1)*Epoch
	if fencedAt > deadline {
		t.Fatalf("fenced at %v, want <= %v", fencedAt, deadline)
	}

	// After the fence the survivors split the remaining budget: each
	// gets (360 - 40)/2 = 160 W, up from the 120 W three-way share.
	for _, n := range res.Nodes {
		if n.Name() == "n1" {
			continue
		}
		for i := 0; i < n.CapTrace().Len(); i++ {
			p := n.CapTrace().At(i)
			if p.T <= fencedAt {
				continue
			}
			want := (budget - DefaultQuarantineCapW) / 2.0
			if p.V < want-1e-9 || p.V > want+1e-9 {
				t.Fatalf("survivor %s cap at %v = %v W, want %v W", n.Name(), p.T, p.V, want)
			}
		}
	}

	// The dead node must not poison the job progress metric: min
	// progress stays healthy after the fence.
	for i := 0; i < res.MinProgress.Len(); i++ {
		p := res.MinProgress.At(i)
		if p.T > fencedAt+2*Epoch && p.V < 0.2 {
			t.Fatalf("min progress %v at %v — fenced node still counted", p.V, p.T)
		}
	}
}

// TestNodeRecoveryUnfencesAfterProbation: a crashed node that comes back
// (RecoverAt) is un-fenced only after probationEpochs consecutive epochs
// of flowing samples, and then gets its equal budget share back while
// the survivors drop back to theirs.
func TestNodeRecoveryUnfencesAfterProbation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	const budget = 360
	m, err := NewManager(EqualSplit{}, ConstantBudget(budget),
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, 1600), 0, 1),
		newNode(t, "n1", apps.LAMMPS(apps.DefaultRanks, 1600), 0, 2),
		newNode(t, "n2", apps.LAMMPS(apps.DefaultRanks, 1600), 0, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	crashAt, recoverAt := 8*time.Second, 14*time.Second
	m.SetFaults(fault.NewInjector(fault.Plan{Nodes: map[string]fault.NodePlan{
		"n1": {CrashAt: crashAt, RecoverAt: recoverAt},
	}}))
	res, err := m.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if failed := m.FailedNodes(); len(failed) != 0 {
		t.Fatalf("FailedNodes() = %v after recovery, want none", failed)
	}

	var recovered *Node
	for _, n := range res.Nodes {
		if n.Name() == "n1" {
			recovered = n
		}
	}
	fencedAt, unfencedAt := time.Duration(-1), time.Duration(-1)
	for i := 0; i < recovered.CapTrace().Len(); i++ {
		p := recovered.CapTrace().At(i)
		if fencedAt < 0 && p.V == DefaultQuarantineCapW {
			fencedAt = p.T
		}
		if fencedAt >= 0 && unfencedAt < 0 && p.V != DefaultQuarantineCapW {
			unfencedAt = p.T
			if want := budget / 3.0; p.V != want {
				t.Fatalf("un-fenced cap %v W, want the %v W equal share back", p.V, want)
			}
		}
	}
	if fencedAt < 0 {
		t.Fatal("crashed node never quarantined")
	}
	if unfencedAt < 0 {
		t.Fatal("recovered node never un-fenced")
	}
	// Un-fencing must wait out probation: not before probationEpochs of
	// flowing samples after recovery, but within a couple epochs after.
	if min := recoverAt + time.Duration(probationEpochs)*Epoch; unfencedAt < min {
		t.Fatalf("un-fenced at %v, before the probation floor %v", unfencedAt, min)
	}
	if max := recoverAt + time.Duration(probationEpochs+3)*Epoch; unfencedAt > max {
		t.Fatalf("un-fenced at %v, want <= %v", unfencedAt, max)
	}

	// Survivors drop back to the equal three-way share once the budget
	// share is returned.
	for _, n := range res.Nodes {
		if n.Name() == "n1" {
			continue
		}
		last := n.CapTrace().At(n.CapTrace().Len() - 1)
		if last.T > unfencedAt && last.V != budget/3.0 {
			t.Fatalf("survivor %s final cap %v W, want %v W", n.Name(), last.V, budget/3.0)
		}
	}
}

// TestSlowdownThrottlesNode verifies the injector's frequency-ceiling
// fault reaches the node's DVFS domain: after SlowAt the node's online
// rate drops roughly with the ceiling while a healthy peer holds steady.
func TestSlowdownThrottlesNode(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	m, err := NewManager(EqualSplit{}, ConstantBudget(600), // ample: power not binding
		newNode(t, "good", apps.LAMMPS(apps.DefaultRanks, 900), 0, 1),
		newNode(t, "slow", apps.LAMMPS(apps.DefaultRanks, 900), 0, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(fault.NewInjector(fault.Plan{Nodes: map[string]fault.NodePlan{
		"slow": {SlowAt: 6 * time.Second, SlowFactor: 0.5},
	}}))
	rateAt := func(name string) float64 {
		for _, s := range m.Statuses() {
			if s.Name == name {
				return s.Rate
			}
		}
		t.Fatalf("no status for %s", name)
		return 0
	}
	var earlySlow, earlyGood float64
	for i := 0; i < 16; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if i == 4 { // pre-fault, post-calibration
			earlySlow, earlyGood = rateAt("slow"), rateAt("good")
		}
	}
	lateSlow, lateGood := rateAt("slow"), rateAt("good")
	if earlySlow <= 0 || earlyGood <= 0 {
		t.Fatal("no pre-fault rates observed")
	}
	if lateSlow > earlySlow*0.75 {
		t.Fatalf("slowed node rate %v vs %v pre-fault — ceiling not applied", lateSlow, earlySlow)
	}
	if lateGood < earlyGood*0.85 {
		t.Fatalf("healthy node rate dropped too: %v vs %v", lateGood, earlyGood)
	}
}
