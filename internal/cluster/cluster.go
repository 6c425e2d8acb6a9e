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
// point a real NRM uses.
package cluster

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/msr"
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
	// stream went silent for FailureEpochs. Policies must not allocate
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
	caps := make([]float64, len(nodes))
	alive := 0
	for _, n := range nodes {
		if n.allocatable() {
			alive++
		}
	}
	if alive == 0 {
		return caps
	}
	share := budgetW / float64(alive)
	for i, n := range nodes {
		if n.allocatable() {
			caps[i] = share
		}
	}
	return caps
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
	caps := make([]float64, len(nodes))
	var weights []float64
	var alive []int
	for i, n := range nodes {
		if !n.allocatable() {
			continue
		}
		// Need grows as normalized progress falls below the job mean.
		need := 1 + gain*(1-stats.Clamp(n.Normalized(), 0, 2))
		weights = append(weights, stats.Clamp(need, 0.25, 4))
		alive = append(alive, i)
	}
	if len(alive) == 0 {
		return caps
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	for k, i := range alive {
		caps[i] = budgetW * weights[k] / wsum
	}
	return caps
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
	caps := make([]float64, len(nodes))
	var weights []float64
	var alive []int
	for i, n := range nodes {
		if !n.allocatable() {
			continue
		}
		// Efficiency: normalized progress per watt drawn; unknown power
		// (first epochs) counts as average.
		eff := 1.0
		if n.PowerW > 0 {
			eff = n.Normalized() / n.PowerW * 100
		}
		weights = append(weights, stats.Clamp(eff, 0.25, 4))
		alive = append(alive, i)
	}
	if len(alive) == 0 {
		return caps
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
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

// Node is one compute node under the manager.
type Node struct {
	name     string
	eng      *engine.Engine
	capW     float64
	baseline float64
	lastRate float64
	lastPow  float64
	capTrace *trace.Series
	result   *engine.Result

	// Watchdog state: a node whose monitor sample count stops moving for
	// FailureEpochs consecutive epochs is fenced (failed = true); a
	// fenced node must then keep samples flowing for ProbationEpochs
	// consecutive epochs before it is un-fenced and gets its budget
	// share back.
	failed         bool
	lastSamples    int
	stagnantEpochs int
	freshEpochs    int
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// CapTrace returns the caps the manager programmed on this node.
func (n *Node) CapTrace() *trace.Series { return n.capTrace }

// Result returns the node's engine result (after Run).
func (n *Node) Result() *engine.Result { return n.result }

// NewNode wraps an engine. The engine must not have its own policy
// daemon — the cluster manager owns the node's power limit.
func NewNode(name string, eng *engine.Engine) *Node {
	n := &Node{
		name:     name,
		eng:      eng,
		capTrace: trace.NewSeries("cluster.cap."+name, "W"),
	}
	eng.SetWindowHook(func(ws engine.WindowStats) { n.lastPow = ws.PkgW })
	return n
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

// Manager drives a set of nodes under a job budget.
type Manager struct {
	nodes  []*Node
	policy Policy
	budget BudgetFunc
	cfg    Config

	// UncappedEpochs is how many initial epochs run without caps to
	// estimate per-node baselines (default 2).
	UncappedEpochs int

	// FailureEpochs is how many consecutive epochs a node's progress
	// stream may stay frozen before the watchdog fences it (default 3).
	FailureEpochs int

	// ProbationEpochs is how many consecutive epochs a fenced node must
	// keep samples flowing before the watchdog un-fences it and returns
	// its budget share (default 3). Without it, a flapping node would
	// bounce in and out of the allocation every epoch, destabilizing
	// every healthy node's cap.
	ProbationEpochs int

	faults *fault.Injector

	// pool fans node advancement across shards each epoch (see shard.go);
	// its worker bound is set with SetNodeWorkers.
	pool shardPool

	// policyHook, when non-nil, is consulted each post-calibration epoch
	// and may swap the division policy at runtime (see SetPolicyHook).
	policyHook PolicyHook

	epoch    int
	elapsed  time.Duration
	res      *Result
	finished bool

	// budgetOverride, when >= 0, replaces the BudgetFunc for the next
	// epochs — how a system-level controller retargets a running job.
	budgetOverride float64
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
	return &Manager{nodes: nodes, policy: policy, budget: budget, cfg: cfg,
		UncappedEpochs: 2, FailureEpochs: 3, ProbationEpochs: 3, budgetOverride: -1}, nil
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

// ShardStats returns the shard pool's accumulated counters.
func (m *Manager) ShardStats() ShardStats { return m.pool.stats }

// FailedNodes lists the nodes currently fenced by the watchdog.
func (m *Manager) FailedNodes() []string {
	var out []string
	for _, n := range m.nodes {
		if n.failed {
			out = append(out, n.name)
		}
	}
	return out
}

// SetBudgetOverride replaces the job's budget function with a fixed
// value from the next epoch on (a system controller retargeting the
// job). A negative value restores the original function.
func (m *Manager) SetBudgetOverride(watts float64) { m.budgetOverride = watts }

// Done reports whether every node's workload has completed.
func (m *Manager) Done() bool {
	for _, n := range m.nodes {
		if !n.eng.Done() {
			return false
		}
	}
	return true
}

// Statuses snapshots the nodes' current feedback.
func (m *Manager) Statuses() []NodeStatus { return m.statuses() }

func (m *Manager) ensureResult() {
	if m.res == nil {
		m.res = &Result{
			MinProgress:  trace.NewSeries("cluster.progress.min", "normalized"),
			MeanProgress: trace.NewSeries("cluster.progress.mean", "normalized"),
			BudgetTrace:  trace.NewSeries("cluster.budget", "W"),
			Nodes:        m.nodes,
		}
	}
}

// Step advances the job by one epoch: decide caps, program them, advance
// every node, collect feedback. It reports whether the job is done.
func (m *Manager) Step() (bool, error) {
	if m.finished {
		return true, fmt.Errorf("cluster: Step after Finish")
	}
	m.ensureResult()
	res := m.res
	// Every per-epoch series is stamped at the epoch's end instant, so
	// the budget in force, the caps programmed, and the progress measured
	// over the same epoch all align on one timestamp.
	end := m.elapsed + Epoch

	// 1. Decide and program caps.
	budgetW := m.budget(m.elapsed)
	if m.budgetOverride >= 0 {
		budgetW = m.budgetOverride
	}
	res.BudgetTrace.Add(end, budgetW)
	statuses := m.statuses()
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
		caps = m.policy.Divide(divisible, statuses)
		if len(caps) != len(m.nodes) {
			return false, fmt.Errorf("cluster: policy %s returned %d caps for %d nodes",
				m.policy.Name(), len(caps), len(m.nodes))
		}
		clampCaps(caps, divisible)
		for i, s := range statuses {
			if s.Failed && !s.Done {
				caps[i] = m.cfg.QuarantineCapW
			}
		}
		floorCaps(caps)
	}
	for i, n := range m.nodes {
		n.capW = caps[i]
		if err := rapl.WriteLimitRetry(n.eng.Device(), caps[i], 10*time.Millisecond); err != nil {
			return false, fmt.Errorf("cluster: programming %s: %w", n.name, err)
		}
		n.capTrace.Add(end, caps[i])
	}

	// 2. Advance every node one epoch, sharded across the pool (engines
	// are self-contained, so distinct nodes advance concurrently without
	// observable effect — see shard.go). A crashed node is frozen in
	// place — it burns no virtual time and produces no reports, which is
	// exactly what the watchdog must detect from the outside. A slowed
	// node gets its frequency ceiling applied before it steps. The crash
	// and ceiling checks are pure window lookups on the node's own plan,
	// safe inside the parallel section.
	now := m.elapsed
	err := m.pool.run(len(m.nodes), func(i int) error {
		n := m.nodes[i]
		if n.eng.Done() {
			return nil
		}
		if np := m.nodeFaults(n); np != nil {
			if np.Crashed(now) {
				return nil
			}
			if frac := np.FreqCeilingFrac(now); frac < 1 {
				n.eng.SetFreqCeiling(frac * n.eng.MaxFreqMHz())
			}
		}
		if _, err := n.eng.Advance(Epoch); err != nil {
			return fmt.Errorf("cluster: advancing %s: %w", n.name, err)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	m.elapsed += Epoch
	m.epoch++

	// 3. Collect feedback, run the watchdog, and compute the job
	// progress metrics over healthy nodes only — a fenced node's frozen
	// last rate must not drag the job minimum to zero forever.
	min, mean, alive := 1.0, 0.0, 0
	for _, n := range m.nodes {
		m.refresh(n)
		m.watchdog(n)
		if n.eng.Done() || n.failed {
			continue
		}
		alive++
		norm := NodeStatus{Rate: n.lastRate, Baseline: n.baseline}.Normalized()
		if norm < min {
			min = norm
		}
		mean += norm
	}
	if alive > 0 {
		res.MinProgress.Add(m.elapsed, min)
		res.MeanProgress.Add(m.elapsed, mean/float64(alive))
	}
	return m.Done(), nil
}

// Finish finalizes every node engine and returns the job result.
func (m *Manager) Finish() (*Result, error) {
	if m.finished {
		return nil, fmt.Errorf("cluster: Finish called twice")
	}
	m.finished = true
	m.ensureResult()
	res := m.res
	res.Elapsed = m.elapsed
	res.Completed = true
	for _, n := range m.nodes {
		r, err := n.eng.Finish()
		if err != nil {
			return nil, fmt.Errorf("cluster: finishing %s: %w", n.name, err)
		}
		n.result = r
		res.TotalEnergyJ += r.EnergyJ
		if !r.Completed {
			res.Completed = false
		}
	}
	return res, nil
}

// Run advances the job until every node's workload completes or maxDur
// of virtual time elapses.
func (m *Manager) Run(maxDur time.Duration) (*Result, error) {
	for m.elapsed < maxDur {
		done, err := m.Step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return m.Finish()
}

// statuses snapshots per-node feedback for the policy.
func (m *Manager) statuses() []NodeStatus {
	out := make([]NodeStatus, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = NodeStatus{
			Name:     n.name,
			CapW:     n.capW,
			PowerW:   n.lastPow,
			Rate:     n.lastRate,
			Baseline: n.baseline,
			Done:     n.eng.Done(),
			Failed:   n.failed,
		}
	}
	return out
}

// nodeFaults returns the node's fault plan, or nil when no injector is
// installed or the plan has no entry for this node.
func (m *Manager) nodeFaults(n *Node) *fault.Node {
	if m.faults == nil {
		return nil
	}
	return m.faults.Node(n.name)
}

// watchdog fences a node whose monitor sample count has not moved for
// FailureEpochs consecutive epochs. A fenced node is un-fenced only
// after a clean probation: samples flowing for ProbationEpochs
// consecutive epochs. One fresh window is not enough — a node rebooting
// in a crash loop emits a burst of reports each time, and handing its
// budget share back on every burst would whipsaw the healthy nodes'
// caps. Done nodes are never fenced — a finished stream is silent by
// design.
func (m *Manager) watchdog(n *Node) {
	count := len(n.eng.Monitor().Samples())
	fresh := count > n.lastSamples
	n.lastSamples = count
	if n.eng.Done() {
		n.failed = false
		n.stagnantEpochs = 0
		n.freshEpochs = 0
		return
	}
	if !n.failed {
		if fresh {
			n.stagnantEpochs = 0
			return
		}
		n.stagnantEpochs++
		if n.stagnantEpochs >= m.FailureEpochs {
			n.failed = true
			n.freshEpochs = 0
		}
		return
	}
	if !fresh {
		n.freshEpochs = 0 // probation restarts on any silent epoch
		return
	}
	n.freshEpochs++
	if n.freshEpochs >= m.ProbationEpochs {
		n.failed = false
		n.stagnantEpochs = 0
		n.freshEpochs = 0
	}
}

// refresh pulls the node's latest window sample out of its monitor and
// maintains the running baseline estimate (the highest smoothed rate
// seen, i.e. near-uncapped performance).
func (m *Manager) refresh(n *Node) {
	samples := n.eng.Monitor().Samples()
	if len(samples) == 0 {
		return
	}
	last := samples[len(samples)-1]
	// Smooth single-window aliasing with the previous window.
	rate := last.Rate
	if len(samples) >= 2 {
		rate = (rate + samples[len(samples)-2].Rate) / 2
	}
	n.lastRate = rate
	if rate > n.baseline {
		n.baseline = rate
	}
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

// floorCaps floors each cap to the RAPL register power unit. The
// register encodes a cap by rounding to the nearest unit, so an
// unrepresentable cap would latch up to half a unit above its share —
// over a fleet, enough for the registers to sum past the budget the
// division respects. Floored, every register holds exactly its cap, as
// the leased grants do.
func floorCaps(caps []float64) {
	unit := msr.DefaultUnits().PowerUnit()
	for i, c := range caps {
		caps[i] = math.Floor(c/unit) * unit
	}
}
