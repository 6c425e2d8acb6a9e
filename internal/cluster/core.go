package cluster

// The epoch core both job managers run on.
//
// A job manager does one thing each epoch: split the job budget across
// its nodes from their progress feedback. How a cap reaches a node is a
// separate choice, the delivery strategy: the direct Manager writes it
// straight into the node's register (cluster.go), the LeasedCluster
// sends it as a journaled, epoch-fenced lease (leased.go). Everything
// else is shared and lives here: the node type, the watchdog over each
// node's report stream, the sharded advance of every node through the
// epoch, the job progress metrics, and result assembly.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/lease"
	"progresscap/internal/msr"
	"progresscap/internal/rapl"
	"progresscap/internal/trace"
)

// Watchdog thresholds, in epochs: a node unheard for failureEpochs
// consecutive epochs is fenced; a fenced node must then be heard for
// probationEpochs consecutive epochs before it is un-fenced and gets its
// budget share back.
const (
	failureEpochs   = 3
	probationEpochs = 3
)

var errStepAfterFinish = errors.New("cluster: Step after Finish")

// Node is one compute node under a job manager. Every cap either manager
// applies to it flows through writeCap. Under the LeasedCluster its cap
// is owned by a lease holder and actuation re-arms the RAPL deadman, so
// a node no manager can reach provably reverts to the safe cap; under
// the direct Manager the holder is nil.
type Node struct {
	name     string
	eng      *engine.Engine
	writeCap func(capW float64) error
	holder   *lease.Holder
	lastPow  float64
	capTrace *trace.Series
	result   *engine.Result
}

// LeasedNode is a node under the replicated manager.
type LeasedNode = Node

// NewNode wraps an engine for the direct Manager. The engine must not
// have its own policy daemon — the cluster manager owns the node's power
// limit.
func NewNode(name string, eng *engine.Engine) *Node { return wrapNode(name, "cluster.", eng) }

// NewLeasedNode wraps an engine for the LeasedCluster. The engine must
// not run its own policy daemon; the lease holder owns the node's power
// limit.
func NewLeasedNode(name string, eng *engine.Engine) *LeasedNode {
	return wrapNode(name, "cluster.lease.", eng)
}

func wrapNode(name, prefix string, eng *engine.Engine) *Node {
	n := &Node{
		name:     name,
		eng:      eng,
		capTrace: trace.NewSeries(prefix+"cap."+name, "W"),
		writeCap: func(capW float64) error {
			return rapl.WriteLimitRetry(eng.Device(), capW, 10*time.Millisecond)
		},
	}
	eng.SetWindowHook(func(ws engine.WindowStats) { n.lastPow = ws.PkgW })
	return n
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// CapTrace returns the caps applied on this node, one per epoch.
func (n *Node) CapTrace() *trace.Series { return n.capTrace }

// Result returns the node's engine result (after Finish).
func (n *Node) Result() *engine.Result { return n.result }

// Holder returns the node's lease state machine (nil under the direct
// Manager).
func (n *Node) Holder() *lease.Holder { return n.holder }

// Engine returns the node's plant.
func (n *Node) Engine() *engine.Engine { return n.eng }

// RegisterCapW decodes the cap currently latched in the node's RAPL
// register (0 = uncapped) — the ground truth the soak oracles check
// against the ledger and the budget.
func (n *Node) RegisterCapW() (float64, error) {
	return registerCapW(n.eng.Device())
}

// observedRate smooths single-window aliasing: the mean of the node's
// last two window rates (0 before its first window).
func (n *Node) observedRate() float64 {
	samples := n.eng.Monitor().Samples()
	if len(samples) == 0 {
		return 0
	}
	rate := samples[len(samples)-1].Rate
	if len(samples) >= 2 {
		rate = (rate + samples[len(samples)-2].Rate) / 2
	}
	return rate
}

// registerCapW decodes the node's currently latched PL1 (0 = disabled).
func registerCapW(dev *msr.Device) (float64, error) {
	raw, err := dev.Read(msr.PkgPowerLimit)
	if err != nil {
		return 0, err
	}
	unitRaw, err := dev.Read(msr.RaplPowerUnit)
	if err != nil {
		return 0, err
	}
	pl1, _ := msr.DecodePowerLimits(raw, msr.DecodeUnits(unitRaw))
	if !pl1.Enabled {
		return 0, nil
	}
	return pl1.Watts, nil
}

// powerUnitW is the RAPL register power unit.
var powerUnitW = msr.DefaultUnits().PowerUnit()

// floorToUnit floors a cap to the RAPL register power unit. The register
// encodes a cap by rounding to the nearest unit, so an unrepresentable
// cap would latch up to half a unit above its share — over a fleet,
// enough for the registers to sum past the budget the division respects.
// Floored, every register holds exactly its cap.
func floorToUnit(capW float64) float64 {
	return math.Floor(capW/powerUnitW) * powerUnitW
}

// watch is the watchdog over one node's report stream, stepped once per
// epoch with whether the node was heard from. A node unheard for
// failureEpochs consecutive epochs is fenced. A fenced node is un-fenced
// only after a clean probation: heard for probationEpochs consecutive
// epochs. One fresh epoch is not enough — a node rebooting in a crash
// loop emits a burst of reports each time, and handing its budget share
// back on every burst would whipsaw the healthy nodes' caps. A done node
// is never fenced: a finished stream is silent by design.
type watch struct {
	silent, fresh int
	fenced        bool
}

func (w *watch) observe(heard, done bool) {
	if done {
		*w = watch{}
		return
	}
	if heard {
		w.silent, w.fresh = 0, w.fresh+1
	} else {
		w.silent, w.fresh = w.silent+1, 0
	}
	if !w.fenced && w.silent >= failureEpochs {
		w.fenced = true
	}
	if w.fenced && w.fresh >= probationEpochs {
		w.fenced = false
	}
}

// feedback is one manager's view of one node: the smoothed online rate
// last seen, its running baseline (the highest rate seen, i.e.
// near-uncapped performance), and the watchdog.
type feedback struct {
	rate, baseline float64
	watch          watch
}

func (f *feedback) see(rate float64) {
	f.rate = rate
	if rate > f.baseline {
		f.baseline = rate
	}
}

// core is the epoch loop state both managers share: the nodes, the
// fault plan, the shard pool that advances them, the virtual clock and
// the job result being assembled.
type core struct {
	nodes    []*Node
	faults   *fault.Injector // nil injects nothing
	pool     shardPool
	elapsed  time.Duration
	result   *Result
	finished bool
}

// newResult starts a job result over nodes, naming its series under
// prefix.
func newResult(prefix string, nodes []*Node) Result {
	return Result{
		MinProgress:  trace.NewSeries(prefix+"progress.min", "normalized"),
		MeanProgress: trace.NewSeries(prefix+"progress.mean", "normalized"),
		BudgetTrace:  trace.NewSeries(prefix+"budget", "W"),
		Nodes:        nodes,
	}
}

// nodePlan returns the named node's fault plan, or nil.
func (c *core) nodePlan(name string) *fault.Node {
	if c.faults == nil {
		return nil
	}
	return c.faults.Node(name)
}

// crashed reports whether the named node is down at the given instant.
func (c *core) crashed(name string, at time.Duration) bool {
	np := c.nodePlan(name)
	return np != nil && np.Crashed(at)
}

// ShardStats returns the node-advancement shard pool's counters.
func (c *core) ShardStats() ShardStats { return c.pool.stats }

// Done reports whether every node's workload has completed.
func (c *core) Done() bool {
	for _, n := range c.nodes {
		if !n.eng.Done() {
			return false
		}
	}
	return true
}

// advance steps every unfinished node one epoch, sharded across the pool
// (engines are self-contained, so distinct nodes advance concurrently
// without observable effect — see shard.go), then moves the clock. A
// crashed node is frozen in place: it burns no virtual time and produces
// no reports, which is exactly what the watchdog must detect from the
// outside. reboot, when set, runs for a crashed node that comes back
// within this epoch. A slowed node gets its frequency ceiling applied
// before it steps. The crash and ceiling checks are pure window lookups
// on the node's own plan, safe inside the parallel section; reboot must
// touch only its own node.
func (c *core) advance(reboot func(n *Node) error) error {
	now := c.elapsed
	err := c.pool.run(len(c.nodes), func(i int) error {
		n := c.nodes[i]
		if n.eng.Done() {
			return nil
		}
		if np := c.nodePlan(n.name); np != nil {
			if np.Crashed(now) {
				if reboot != nil && !np.Crashed(now+Epoch) {
					return reboot(n)
				}
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
		return err
	}
	c.elapsed += Epoch
	return nil
}

// recordProgress stamps the job's minimum (the bulk-synchronous job
// rate) and mean normalized progress at the epoch's end. norm is called
// for every node in order and reports its normalized progress, or false
// when the node does not count this epoch.
func (c *core) recordProgress(norm func(i int, n *Node) (float64, bool)) {
	min, mean, alive := 1.0, 0.0, 0
	for i, n := range c.nodes {
		v, ok := norm(i, n)
		if !ok {
			continue
		}
		alive++
		if v < min {
			min = v
		}
		mean += v
	}
	if alive > 0 {
		c.result.MinProgress.Add(c.elapsed, min)
		c.result.MeanProgress.Add(c.elapsed, mean/float64(alive))
	}
}

// finish finalizes every node engine and completes the job result.
func (c *core) finish() error {
	if c.finished {
		return fmt.Errorf("cluster: Finish called twice")
	}
	c.finished = true
	res := c.result
	res.Elapsed = c.elapsed
	res.Completed = true
	for _, n := range c.nodes {
		r, err := n.eng.Finish()
		if err != nil {
			return fmt.Errorf("cluster: finishing %s: %w", n.name, err)
		}
		n.result = r
		res.TotalEnergyJ += r.EnergyJ
		res.WorkUnits += r.WorkUnits
		if !r.Completed {
			res.Completed = false
		}
	}
	return nil
}

// run steps the job until every node's workload completes or maxDur of
// virtual time elapses.
func (c *core) run(maxDur time.Duration, step func() (bool, error)) error {
	for c.elapsed < maxDur {
		done, err := step()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return nil
}
