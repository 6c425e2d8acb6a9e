package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/rapl"
)

// digestOf hashes a scenario transcript down to 16 hex digits.
func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// stepManagerDigest steps m for at most epochs epochs, recording the
// fenced set and every node status after each one, then finishes it and
// appends the full result signature.
func stepManagerDigest(t *testing.T, b *strings.Builder, m *Manager, epochs int) {
	t.Helper()
	for e := 0; e < epochs; e++ {
		done, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "epoch %d failed=%v\n", e, m.FailedNodes())
		for _, s := range m.Statuses() {
			fmt.Fprintf(b, "  %s cap=%b pow=%b rate=%b base=%b done=%t failed=%t\n",
				s.Name, s.CapW, s.PowerW, s.Rate, s.Baseline, s.Done, s.Failed)
		}
		if done {
			break
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(managerSig(res))
}

// stepLeasedDigest steps lc for epochs epochs, recording the lease
// counters, every holder's counters, the journal replay, the enforced
// register sum and both inboxes after each one, then finishes it and
// appends the full result signature.
func stepLeasedDigest(t *testing.T, b *strings.Builder, lc *LeasedCluster, epochs int) {
	t.Helper()
	for e := 0; e < epochs; e++ {
		done, err := lc.Step()
		if err != nil {
			t.Fatal(err)
		}
		r := lc.res
		fmt.Fprintf(b, "epoch %d failovers=%d grants=%d fenced=%d expired=%d undelivered=%d overshoot=%b\n",
			e, r.Failovers, r.GrantsIssued, r.FencedGrants, r.ExpiredOnArrival, r.UndeliveredGrants, r.PeakOvershootW)
		for _, n := range lc.Nodes() {
			fmt.Fprintf(b, "  %s holder=%+v cap=%b\n", n.Name(), n.Holder().Counters(), n.Holder().CapAt(lc.Elapsed()))
		}
		grants, maxEpoch, maxSeq, err := lc.ReplayGrants()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "  journal epoch=%d seq=%d grants=%d\n", maxEpoch, maxSeq, len(grants))
		for _, g := range grants {
			fmt.Fprintf(b, "    %s %b %d %d %d %d\n", g.Node, g.CapW, g.Epoch, g.Seq, g.GrantedAt, g.TTL)
		}
		enforced, err := lc.EnforcedCapW(lc.Elapsed())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "  enforced=%b\n", enforced)
		for _, name := range []string{PrimaryManager, StandbyManager} {
			ctl, tel, _ := lc.ManagerInboxStats(name)
			fmt.Fprintf(b, "  inbox %s %+v %+v\n", name, ctl, tel)
		}
		if done {
			break
		}
	}
	res, err := lc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(leasedSig(res))
}

func newDigestManager(t *testing.T, pol Policy, budget BudgetFunc, steps int) *Manager {
	t.Helper()
	m, err := NewManager(pol, budget,
		newNode(t, "n0", apps.LAMMPS(apps.DefaultRanks, steps), 0, 1),
		newNode(t, "n1", apps.LAMMPS(apps.DefaultRanks, steps), 1.15, 2),
		newNode(t, "n2", apps.LAMMPS(apps.DefaultRanks, steps), 0, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClusterResultDigests pins the job managers' observable behaviour
// bit for bit: every result series, the per-epoch fenced sets and
// statuses, the lease counters and journal replay, and every node's
// engine signature, for a table of Manager, System and LeasedCluster
// scenarios. A refactor of the epoch loop must leave every digest as is.
func TestClusterResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	scenarios := []struct {
		name string
		want string
		run  func(t *testing.T, b *strings.Builder)
	}{
		{"manager/healthy", "6166a9909a830322", func(t *testing.T, b *strings.Builder) {
			m := newDigestManager(t, EqualSplit{}, ConstantBudget(330), 300)
			stepManagerDigest(t, b, m, 40)
		}},
		{"manager/decaying-budget", "666d06b3eae8cdde", func(t *testing.T, b *strings.Builder) {
			m := newDigestManager(t, ProgressAware{Gain: 2}, DecayingBudget(420, 240, 8*time.Second), 600)
			stepManagerDigest(t, b, m, 12)
		}},
		{"manager/crash-recover", "a81c1f75132a9f27", func(t *testing.T, b *strings.Builder) {
			m := newDigestManager(t, EqualSplit{}, ConstantBudget(360), 900)
			m.SetFaults(fault.NewInjector(fault.Plan{Nodes: map[string]fault.NodePlan{
				"n1": {CrashAt: 4 * time.Second, RecoverAt: 9 * time.Second},
			}}))
			stepManagerDigest(t, b, m, 18)
		}},
		{"manager/slowdown", "e317e0745cb28a20", func(t *testing.T, b *strings.Builder) {
			m := newDigestManager(t, Throughput{}, ConstantBudget(330), 600)
			m.SetFaults(fault.NewInjector(fault.Plan{Nodes: map[string]fault.NodePlan{
				"n2": {SlowAt: 3 * time.Second, SlowFactor: 0.5},
			}}))
			stepManagerDigest(t, b, m, 10)
		}},
		{"manager/policy-hook", "8127d05f565f074e", func(t *testing.T, b *strings.Builder) {
			m := newDigestManager(t, EqualSplit{}, ConstantBudget(300), 600)
			m.SetPolicyHook(func(epoch int, statuses []NodeStatus) Policy {
				switch epoch {
				case 4:
					return ProgressAware{Gain: 3}
				case 7:
					return BinPackSortedWatts{}
				case 9:
					return MaxGreedyMins{}
				}
				return nil
			})
			stepManagerDigest(t, b, m, 12)
			fmt.Fprintf(b, "policy=%s\n", m.PolicyName())
		}},
		{"system/late-arrival", "f2e0aef7dfaf6583", func(t *testing.T, b *strings.Builder) {
			low := newManagerForJob(t, 600, 1, 2)
			high := newManagerForJob(t, 200, 11, 1)
			sys, err := NewSystem(360,
				NewSystemJob("low", 1, 80, 0, low),
				NewSystemJob("high", 4, 80, 5, high))
			if err != nil {
				t.Fatal(err)
			}
			results, err := sys.Run(14 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(results))
			for name := range results {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(b, "job %s\n", name)
				b.WriteString(managerSig(results[name]))
			}
		}},
		{"leased/healthy", "ab72e7252b987091", func(t *testing.T, b *strings.Builder) {
			stepLeasedDigest(t, b, newLeasedTestCluster(t, fault.Plan{}), 8)
		}},
		{"leased/primary-kill", "c1f2cdc8ba56886b", func(t *testing.T, b *strings.Builder) {
			lc := newLeasedTestCluster(t, fault.Plan{Managers: map[string]fault.ManagerPlan{
				PrimaryManager: {KillAt: 4 * time.Second},
			}})
			stepLeasedDigest(t, b, lc, 12)
		}},
		{"leased/partition", "4da1428908b943dc", func(t *testing.T, b *strings.Builder) {
			lc := newLeasedTestCluster(t, fault.Plan{Partitions: []fault.Partition{{
				Window: fault.Window{From: 4 * time.Second, To: 10 * time.Second},
				A:      []string{"n1"},
				B:      []string{PrimaryManager, StandbyManager},
			}}})
			stepLeasedDigest(t, b, lc, 16)
		}},
		{"leased/deposed-primary", "3d93314fedaf8ff8", func(t *testing.T, b *strings.Builder) {
			lc := newLeasedTestCluster(t, fault.Plan{Managers: map[string]fault.ManagerPlan{
				PrimaryManager: {PauseAt: 4500 * time.Millisecond, ResumeAt: 10 * time.Second},
			}})
			stepLeasedDigest(t, b, lc, 14)
		}},
		{"leased/both-managers-dead", "97fdaef410aeb459", func(t *testing.T, b *strings.Builder) {
			lc := newLeasedTestCluster(t, fault.Plan{Managers: map[string]fault.ManagerPlan{
				PrimaryManager: {KillAt: 3 * time.Second},
				StandbyManager: {KillAt: 3 * time.Second},
			}})
			stepLeasedDigest(t, b, lc, 9)
		}},
		{"leased/cap-writer", "3dd1921a38bcf075", func(t *testing.T, b *strings.Builder) {
			var writes []string
			lc, err := NewLeasedCluster(LeasedConfig{
				Policy: ProgressAware{Gain: 3},
				Budget: DecayingBudget(320, 240, 6*time.Second),
				// Serial stepping: the reboot cap is written inside the
				// node phase, and the hook appends to one shared slice.
				NodeWorkers: 1,
				Faults: fault.NewInjector(fault.Plan{Nodes: map[string]fault.NodePlan{
					"n1": {CrashAt: 3 * time.Second, RecoverAt: 5 * time.Second},
				}}),
				CapWriter: func(eng *engine.Engine) func(float64) error {
					return func(capW float64) error {
						writes = append(writes, fmt.Sprintf("%b", capW))
						return rapl.WriteLimitRetry(eng.Device(), capW, 10*time.Millisecond)
					}
				},
			}, newLeasedTestNode(t, "n0", 1), newLeasedTestNode(t, "n1", 2), newLeasedTestNode(t, "n2", 3))
			if err != nil {
				t.Fatal(err)
			}
			stepLeasedDigest(t, b, lc, 9)
			fmt.Fprintf(b, "writes=%d %v\n", len(writes), writes)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var b strings.Builder
			sc.run(t, &b)
			if got := digestOf(b.String()); got != sc.want {
				t.Errorf("%s digest = %s, want %s", sc.name, got, sc.want)
			}
		})
	}
}
