// Package cluster implements the job level of the Argo power-management
// hierarchy the paper is motivated by (§II): a job receives a power
// budget from the system, distributes it across its compute nodes
// "according to application characteristics and node variability", and
// each node's resource manager enforces its share through RAPL while the
// job manager watches online progress — the capability the paper argues
// progress monitoring enables.
//
// The manager advances every node engine in one-second epochs. At each
// epoch it reads per-node feedback (measured power, online performance,
// a running baseline estimate), asks its division policy for new
// per-node caps under the current job budget, and programs them through
// each node's whitelisted MSR interface — exactly the interposition
// point a real NRM uses. That direct Manager and the replicated,
// lease-based LeasedCluster (leased.go) are two delivery strategies on
// one epoch core (core.go).
package cluster

import (
	"fmt"
	"time"

	"progresscap/internal/fault"
	"progresscap/internal/rapl"
	"progresscap/internal/stats"
	"progresscap/internal/trace"
)

// Epoch is the job manager's control period.
const Epoch = time.Second

// DefaultQuarantineCapW is the default power cap held on a fenced node.
// It must be a small *positive* value: 0 means "uncapped" in RAPL
// semantics, and an unresponsive node left uncapped could silently burn
// its full TDP out of the job's allocation.
const DefaultQuarantineCapW = 40

// Config carries the manager knobs that were previously compile-time
// constants. The zero value is replaced by defaults in Validate.
type Config struct {
	// QuarantineCapW is the power cap held on a fenced node. Must be
	// positive (0 is "uncapped" in RAPL semantics) and below the node
	// TDP — quarantine exists to bound a silent node's draw, so a cap at
	// or above TDP would be a no-op disguised as a safety measure.
	QuarantineCapW float64
}

// DefaultClusterConfig returns the defaults.
func DefaultClusterConfig() Config {
	return Config{QuarantineCapW: DefaultQuarantineCapW}
}

// Validate fills defaults and rejects unsafe values.
func (c *Config) Validate() error {
	if c.QuarantineCapW == 0 {
		c.QuarantineCapW = DefaultQuarantineCapW
	}
	if c.QuarantineCapW < 0 {
		return fmt.Errorf("cluster: QuarantineCapW %.1f W must be positive (0 means uncapped in RAPL)", c.QuarantineCapW)
	}
	if c.QuarantineCapW >= rapl.FirmwareDefaultCapW {
		return fmt.Errorf("cluster: QuarantineCapW %.1f W must be below the node TDP (%d W)",
			c.QuarantineCapW, rapl.FirmwareDefaultCapW)
	}
	return nil
}

// NodeStatus is the per-epoch feedback a policy divides on.
type NodeStatus struct {
	Name     string
	CapW     float64 // cap currently programmed (0 = uncapped)
	PowerW   float64 // package power over the last epoch
	Rate     float64 // online performance over the last epoch
	Baseline float64 // running estimate of the uncapped rate
	Done     bool
	// Failed marks a node the manager's watchdog has fenced: its progress
	// stream went silent for failureEpochs. Policies must not allocate
	// budget to it; the manager holds it at a quarantine cap instead.
	Failed bool
}

// allocatable reports whether a node should receive a budget share.
func (s NodeStatus) allocatable() bool { return !s.Done && !s.Failed }

// Normalized returns the node's progress as a fraction of its baseline
// estimate (1 when no baseline is known yet).
func (s NodeStatus) Normalized() float64 {
	if s.Baseline <= 0 {
		return 1
	}
	return s.Rate / s.Baseline
}

// Policy divides a job budget across nodes. Implementations return one
// cap per status entry (0 = leave the node uncapped); the manager clamps
// the sum to the budget.
type Policy interface {
	Name() string
	Divide(budgetW float64, nodes []NodeStatus) []float64
}

// EqualSplit gives every unfinished node the same share — the obvious
// progress-agnostic baseline policy.
type EqualSplit struct{}

// Name implements Policy.
func (EqualSplit) Name() string { return "equal-split" }

// Divide implements Policy.
func (EqualSplit) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	return weightedSplit(budgetW, nodes, func(NodeStatus) float64 { return 1 })
}

// ProgressAware shifts power toward nodes whose normalized online
// performance lags, equalizing progress across the job the way the
// paper's envisioned NRM policies (and critical-path systems like POW /
// Conductor) do. It needs the progress metric the paper defines — a
// power- or time-based policy cannot see which node is behind on
// *science*.
type ProgressAware struct {
	// Gain scales how aggressively power follows the progress gap;
	// 0 defaults to 1.
	Gain float64
}

// Name implements Policy.
func (ProgressAware) Name() string { return "progress-aware" }

// Divide implements Policy.
func (p ProgressAware) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	gain := p.Gain
	if gain == 0 {
		gain = 1
	}
	return weightedSplit(budgetW, nodes, func(n NodeStatus) float64 {
		// Need grows as normalized progress falls below the job mean.
		need := 1 + gain*(1-stats.Clamp(n.Normalized(), 0, 2))
		return stats.Clamp(need, 0.25, 4)
	})
}

// Throughput maximizes the job's *mean* progress by steering power
// toward nodes that convert watts into normalized progress most
// efficiently — the right policy for embarrassingly parallel jobs with
// no synchronization, and the foil to ProgressAware for synchronous
// ones (it starves inefficient silicon instead of compensating for it).
type Throughput struct{}

// Name implements Policy.
func (Throughput) Name() string { return "throughput" }

// Divide implements Policy.
func (Throughput) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	return weightedSplit(budgetW, nodes, func(n NodeStatus) float64 {
		// Efficiency: normalized progress per watt drawn; unknown power
		// (first epochs) counts as average.
		eff := 1.0
		if n.PowerW > 0 {
			eff = n.Normalized() / n.PowerW * 100
		}
		return stats.Clamp(eff, 0.25, 4)
	})
}

// weightedSplit divides the budget across the allocatable nodes in
// proportion to their weights.
func weightedSplit(budgetW float64, nodes []NodeStatus, weight func(NodeStatus) float64) []float64 {
	caps := make([]float64, len(nodes))
	alive := allocatableIdx(nodes)
	weights := make([]float64, len(alive))
	var wsum float64
	for k, i := range alive {
		weights[k] = weight(nodes[i])
		wsum += weights[k]
	}
	for k, i := range alive {
		caps[i] = budgetW * weights[k] / wsum
	}
	return caps
}

// BudgetFunc is the job's power budget over time, in watts.
type BudgetFunc func(elapsed time.Duration) float64

// ConstantBudget returns a fixed job budget.
func ConstantBudget(w float64) BudgetFunc {
	return func(time.Duration) float64 { return w }
}

// DecayingBudget decreases linearly from startW to endW over the given
// duration, then holds — the paper's "gradually decreasing power
// budgets" scenario.
func DecayingBudget(startW, endW float64, over time.Duration) BudgetFunc {
	return func(t time.Duration) float64 {
		if t >= over {
			return endW
		}
		frac := float64(t) / float64(over)
		return startW + (endW-startW)*frac
	}
}

// Result is the job-level outcome.
type Result struct {
	Elapsed time.Duration
	// MinProgress and MeanProgress track the job's normalized progress
	// per epoch: the minimum across nodes (the bulk-synchronous job
	// rate) and the mean.
	MinProgress  *trace.Series
	MeanProgress *trace.Series
	BudgetTrace  *trace.Series
	TotalEnergyJ float64
	WorkUnits    float64
	Nodes        []*Node
	Completed    bool
}

// MeanMinProgress averages the per-epoch minimum normalized progress —
// the headline number for comparing division policies on synchronous
// jobs.
func (r *Result) MeanMinProgress() float64 {
	vals := r.MinProgress.Values()
	// Skip the calibration epochs where baselines are still settling.
	if len(vals) > 4 {
		vals = vals[2:]
	}
	return stats.Mean(vals)
}

// Manager drives a set of nodes under a job budget, programming each
// node's cap straight into its register every epoch.
type Manager struct {
	core
	policy Policy
	budget BudgetFunc
	cfg    Config

	// UncappedEpochs is how many initial epochs run without caps to
	// estimate per-node baselines (default 2).
	UncappedEpochs int

	// policyHook, when non-nil, is consulted each post-calibration epoch
	// and may swap the division policy at runtime (see SetPolicyHook).
	policyHook PolicyHook

	epoch int

	// budgetOverride, when >= 0, replaces the BudgetFunc for the next
	// epochs — how a system-level controller retargets a running job.
	budgetOverride float64

	// By node index: the manager's feedback, the cap it last programmed,
	// and the monitor sample count at the last watchdog pass (a count
	// that moved means the node was heard from).
	fb      []feedback
	capW    []float64
	samples []int
}

// NewManager assembles a job manager with default Config.
func NewManager(policy Policy, budget BudgetFunc, nodes ...*Node) (*Manager, error) {
	return NewManagerCfg(DefaultClusterConfig(), policy, budget, nodes...)
}

// NewManagerCfg assembles a job manager with an explicit Config.
func NewManagerCfg(cfg Config, policy Policy, budget BudgetFunc, nodes ...*Node) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil || budget == nil {
		return nil, fmt.Errorf("cluster: nil policy or budget")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n.name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.name)
		}
		seen[n.name] = true
	}
	res := newResult("cluster.", nodes)
	return &Manager{core: core{nodes: nodes, result: &res}, policy: policy, budget: budget, cfg: cfg,
		UncappedEpochs: 2, budgetOverride: -1,
		fb: make([]feedback, len(nodes)), capW: make([]float64, len(nodes)), samples: make([]int, len(nodes))}, nil
}

// SetFaults installs a fault injector whose per-node plans (crash,
// slowdown) the manager consults while stepping. Call before the first
// Step.
func (m *Manager) SetFaults(inj *fault.Injector) { m.faults = inj }

// SetNodeWorkers bounds how many node shards advance concurrently each
// epoch: 0 (the default) means GOMAXPROCS, 1 means the plain serial
// loop. Results are byte-identical at any setting — engines are fully
// self-contained — so this is purely a wall-clock knob. Call before the
// first Step.
func (m *Manager) SetNodeWorkers(workers int) { m.pool.workers = workers }

// FailedNodes lists the nodes currently fenced by the watchdog.
func (m *Manager) FailedNodes() []string {
	var out []string
	for i, n := range m.nodes {
		if m.fb[i].watch.fenced {
			out = append(out, n.name)
		}
	}
	return out
}

// SetBudgetOverride replaces the job's budget function with a fixed
// value from the next epoch on (a system controller retargeting the
// job). A negative value restores the original function.
func (m *Manager) SetBudgetOverride(watts float64) { m.budgetOverride = watts }

// Statuses snapshots the nodes' current feedback.
func (m *Manager) Statuses() []NodeStatus {
	out := make([]NodeStatus, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = NodeStatus{
			Name:     n.name,
			CapW:     m.capW[i],
			PowerW:   n.lastPow,
			Rate:     m.fb[i].rate,
			Baseline: m.fb[i].baseline,
			Done:     n.eng.Done(),
			Failed:   m.fb[i].watch.fenced,
		}
	}
	return out
}

// Step advances the job by one epoch: decide caps, program them, advance
// every node, collect feedback. It reports whether the job is done.
func (m *Manager) Step() (bool, error) {
	if m.finished {
		return true, errStepAfterFinish
	}
	// Every per-epoch series is stamped at the epoch's end instant, so
	// the budget in force, the caps programmed, and the progress measured
	// over the same epoch all align on one timestamp.
	end := m.elapsed + Epoch

	// 1. Decide and program caps.
	budgetW := m.budget(m.elapsed)
	if m.budgetOverride >= 0 {
		budgetW = m.budgetOverride
	}
	m.result.BudgetTrace.Add(end, budgetW)
	statuses := m.Statuses()
	if m.policyHook != nil && m.epoch >= m.UncappedEpochs {
		if p := m.policyHook(m.epoch, statuses); p != nil {
			m.policy = p
		}
	}

	// Fenced nodes are held at the quarantine cap; that power comes out
	// of the job budget before the policy divides the remainder among
	// healthy nodes.
	divisible := budgetW
	for _, s := range statuses {
		if s.Failed && !s.Done {
			divisible -= m.cfg.QuarantineCapW
		}
	}
	if divisible < 0 {
		divisible = 0
	}

	var caps []float64
	if m.epoch < m.UncappedEpochs {
		caps = make([]float64, len(m.nodes)) // calibration: uncapped
	} else {
		var err error
		if caps, err = divide(m.policy, divisible, statuses); err != nil {
			return false, err
		}
		for i, s := range statuses {
			if s.Failed && !s.Done {
				caps[i] = m.cfg.QuarantineCapW
			}
			// Floored, every register holds exactly its cap, as the
			// leased grants do.
			caps[i] = floorToUnit(caps[i])
		}
	}
	for i, n := range m.nodes {
		m.capW[i] = caps[i]
		if err := n.writeCap(caps[i]); err != nil {
			return false, fmt.Errorf("cluster: programming %s: %w", n.name, err)
		}
		n.capTrace.Add(end, caps[i])
	}

	// 2. Advance every node one epoch.
	if err := m.advance(nil); err != nil {
		return false, err
	}
	m.epoch++

	// 3. Collect feedback, run the watchdog, and compute the job
	// progress metrics over healthy nodes only — a fenced node's frozen
	// last rate must not drag the job minimum to zero forever.
	m.recordProgress(func(i int, n *Node) (float64, bool) {
		f := &m.fb[i]
		count := len(n.eng.Monitor().Samples())
		if count > 0 {
			f.see(n.observedRate())
		}
		heard := count > m.samples[i]
		m.samples[i] = count
		f.watch.observe(heard, n.eng.Done())
		if n.eng.Done() || f.watch.fenced {
			return 0, false
		}
		return NodeStatus{Rate: f.rate, Baseline: f.baseline}.Normalized(), true
	})
	return m.Done(), nil
}

// Finish finalizes every node engine and returns the job result.
func (m *Manager) Finish() (*Result, error) {
	if err := m.finish(); err != nil {
		return nil, err
	}
	return m.result, nil
}

// Run advances the job until every node's workload completes or maxDur
// of virtual time elapses.
func (m *Manager) Run(maxDur time.Duration) (*Result, error) {
	if err := m.run(maxDur, m.Step); err != nil {
		return nil, err
	}
	return m.Finish()
}

// divide asks the policy for one cap per node and clamps their sum to
// the budget.
func divide(p Policy, budgetW float64, statuses []NodeStatus) ([]float64, error) {
	caps := p.Divide(budgetW, statuses)
	if len(caps) != len(statuses) {
		return nil, fmt.Errorf("cluster: policy %s returned %d caps for %d nodes", p.Name(), len(caps), len(statuses))
	}
	clampCaps(caps, budgetW)
	return caps, nil
}

// clampCaps scales the caps down proportionally if they exceed the
// budget (a policy bug must never over-commit the job's allocation).
func clampCaps(caps []float64, budgetW float64) {
	var sum float64
	for _, c := range caps {
		sum += c
	}
	if sum <= budgetW || sum == 0 {
		return
	}
	scale := budgetW / sum
	for i := range caps {
		caps[i] *= scale
	}
}
