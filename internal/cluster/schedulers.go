package cluster

// Fleet-scale placement policies, modeled on elektron's schedulers/
// (binpacksortedwatts, MaxGreedyMins) recast from task placement to
// watt placement: instead of packing tasks onto offers, they pack the
// job's watt budget onto nodes. Both treat a node's measured draw as
// its "task size" — after the calibration epochs the manager has seen
// every node run uncapped, so PowerW is a true demand signal — and
// both reserve a safety floor per node before concentrating anything,
// so no node is starved below quarantine power.
//
// SetPolicy / PolicyHook make the division policy switchable at
// runtime, elektron's schedPolicy switching hook: a sweep can start
// bin-packed for throughput and fall back to equal-split when the
// budget tightens, without rebuilding the manager.

import (
	"fmt"
	"sort"

	"progresscap/internal/rapl"
)

// BinPackSortedWatts packs the budget onto the hungriest nodes first:
// statuses are sorted by measured draw (descending, node order breaking
// ties), each node in turn is filled to its demand — at most NodeCapW —
// and whatever remains after every demand is met is spread equally.
// Nodes the budget runs out on sit at the FloorW reserve. The effect is
// elektron's bin-packing: a tight budget concentrates on the few nodes
// that convert watts fastest instead of brown-outing everyone.
type BinPackSortedWatts struct {
	// NodeCapW bounds any single node's fill (0 = the firmware TDP).
	NodeCapW float64
	// FloorW is the per-node reserve granted before packing
	// (0 = DefaultQuarantineCapW). Keeps starved nodes at quarantine
	// power rather than uncapped-by-zero.
	FloorW float64
}

// Name implements Policy.
func (BinPackSortedWatts) Name() string { return "binpack-sorted-watts" }

// Divide implements Policy.
func (p BinPackSortedWatts) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	order := allocatableIdx(nodes)
	if len(order) == 0 {
		return make([]float64, len(nodes))
	}
	sort.SliceStable(order, func(a, b int) bool {
		return nodes[order[a]].PowerW > nodes[order[b]].PowerW
	})
	return packCaps(budgetW, nodes, order, orDefault(p.NodeCapW, rapl.FirmwareDefaultCapW), orDefault(p.FloorW, DefaultQuarantineCapW))
}

// MaxGreedyMins fills the single largest demand first, then grows the
// smallest demands upward — elektron's MaxGreedyMins shape: one watt-
// heavy node is satisfied outright (the job's critical consumer), and
// the remaining budget lifts the cheapest nodes first, maximizing how
// many nodes reach their full demand.
type MaxGreedyMins struct {
	// NodeCapW / FloorW as in BinPackSortedWatts.
	NodeCapW float64
	FloorW   float64
}

// Name implements Policy.
func (MaxGreedyMins) Name() string { return "max-greedy-mins" }

// Divide implements Policy.
func (p MaxGreedyMins) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	order := allocatableIdx(nodes)
	if len(order) == 0 {
		return make([]float64, len(nodes))
	}
	// Ascending by demand, node order breaking ties; then the max is
	// pulled to the front.
	sort.SliceStable(order, func(a, b int) bool {
		return nodes[order[a]].PowerW < nodes[order[b]].PowerW
	})
	maxAt := len(order) - 1
	front := make([]int, 0, len(order))
	front = append(front, order[maxAt])
	front = append(front, order[:maxAt]...)
	return packCaps(budgetW, nodes, front, orDefault(p.NodeCapW, rapl.FirmwareDefaultCapW), orDefault(p.FloorW, DefaultQuarantineCapW))
}

// orDefault returns v, or def when v is not positive.
func orDefault(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// allocatableIdx returns the indices of nodes eligible for budget, in
// node order.
func allocatableIdx(nodes []NodeStatus) []int {
	idx := make([]int, 0, len(nodes))
	for i, n := range nodes {
		if n.allocatable() {
			idx = append(idx, i)
		}
	}
	return idx
}

// packCaps reserves floorW per allocatable node, fills nodes to their
// demand (bounded by nodeCapW) in the given order until the budget is
// exhausted, then spreads any remainder equally. A budget below the
// total floor degrades to an equal split — packing only ever happens on
// top of the safety reserve. Fully deterministic: order is the caller's
// (tie-broken by node index) and no iteration touches map state.
func packCaps(budgetW float64, nodes []NodeStatus, order []int, nodeCapW, floorW float64) []float64 {
	caps := make([]float64, len(nodes))
	alive := float64(len(order))
	if budgetW <= floorW*alive {
		share := budgetW / alive
		for _, i := range order {
			caps[i] = share
		}
		return caps
	}
	rem := budgetW - floorW*alive
	for _, i := range order {
		caps[i] = floorW
	}
	for _, i := range order {
		if rem <= 0 {
			break
		}
		demand := nodes[i].PowerW
		if demand <= 0 {
			demand = nodeCapW // unmeasured node: assume it can use TDP
		}
		if demand > nodeCapW {
			demand = nodeCapW
		}
		add := demand - floorW
		if add <= 0 {
			continue
		}
		if add > rem {
			add = rem
		}
		caps[i] += add
		rem -= add
	}
	// Surplus beyond every demand water-fills equally, bounded by the
	// per-node cap: each pass spreads the remainder over the unsaturated
	// nodes, saturating some; at most len(order) passes. Budget the
	// hardware cannot latch (everyone at nodeCapW) stays unallocated —
	// under-commitment is safe, a fictional above-TDP cap is not.
	for rem > 1e-12 {
		open := 0
		for _, i := range order {
			if caps[i] < nodeCapW {
				open++
			}
		}
		if open == 0 {
			break
		}
		share := rem / float64(open)
		for _, i := range order {
			if caps[i] >= nodeCapW {
				continue
			}
			add := share
			if caps[i]+add > nodeCapW {
				add = nodeCapW - caps[i]
			}
			caps[i] += add
			rem -= add
		}
	}
	return caps
}

// PolicyHook inspects the epoch's statuses before division and may
// return a replacement policy (nil keeps the current one) — runtime
// policy switching, consulted once per post-calibration epoch.
type PolicyHook func(epoch int, statuses []NodeStatus) Policy

// SetPolicy swaps the manager's division policy from the next epoch on.
func (m *Manager) SetPolicy(p Policy) error {
	if p == nil {
		return fmt.Errorf("cluster: SetPolicy(nil)")
	}
	m.policy = p
	return nil
}

// PolicyName returns the current division policy's name.
func (m *Manager) PolicyName() string { return m.policy.Name() }

// SetPolicyHook installs a runtime policy-switching hook. Call before
// the first Step; pass nil to remove.
func (m *Manager) SetPolicyHook(h PolicyHook) { m.policyHook = h }
