package cluster

// Partition-tolerant power leasing: the replicated job manager, the
// second delivery strategy on the epoch core (core.go).
//
// The direct Manager assumes it is always up and always connected — it
// writes caps straight into every node's MSR each epoch. This strategy
// drops both assumptions. Caps become time-bounded, epoch-fenced leases
// (internal/lease); the manager is replicated as a primary/standby pair
// sharing state through the append-only journal (internal/journal); and
// every node arms a RAPL deadman so an un-renewed lease reverts the
// hardware to the quarantine-safe cap within one TTL. The resulting
// invariant needs no consensus protocol:
//
//	Σ(enforced node caps) ≤ Σ(arbiter charges) ≤ job budget
//
// at every instant, across manager crashes, pauses, failovers, and
// network partitions — because grants are journaled before they are
// sent, a failover adopts every unexpired journaled grant as a charge,
// the shared log rejects appends from deposed epochs, and each node
// rejects grants whose (epoch, seq) is not strictly newer than anything
// it has enforced.

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/journal"
	"progresscap/internal/lease"
	"progresscap/internal/pubsub"
	"progresscap/internal/rapl"
	"progresscap/internal/trace"
)

// Manager names of the replicated pair, usable in fault.Plan.Managers
// and fault.Partition actor lists.
const (
	PrimaryManager = "m0"
	StandbyManager = "m1"
)

// TelemetryTopicPrefix carries node → manager progress reports (the
// telemetry lane of the manager inbox).
const TelemetryTopicPrefix = "telemetry.progress."

// AckTopicPrefix carries node → manager lease acknowledgements (the
// control lane of the manager inbox).
const AckTopicPrefix = "lease.ack."

// inboxLaneDepth bounds each lane of a manager inbox. Overflow sheds per
// lane — control never queues behind telemetry.
const inboxLaneDepth = 256

// errFencedAppend rejects a journal append from a deposed reign.
var errFencedAppend = errors.New("cluster: journal append fenced (stale manager epoch)")

// LeasedConfig assembles a replicated, lease-based job manager.
type LeasedConfig struct {
	// Cluster supplies the quarantine cap, which doubles as the lease
	// safe cap: the power a node reverts to when its lease lapses.
	Cluster Config
	Policy  Policy
	Budget  BudgetFunc

	// LeaseTTL bounds how long a grant is enforceable without renewal
	// (default 3 epochs). It is also the node deadman TTL, so the
	// revert-to-safe-cap guarantee holds in hardware, not just in the
	// ledger.
	LeaseTTL time.Duration

	// FailoverEpochs is how many consecutive epochs the shared journal
	// may go without appends before the standby takes over (default 2).
	FailoverEpochs int

	// NodeWorkers bounds how many node shards advance concurrently each
	// epoch (0 = GOMAXPROCS, 1 = serial). Purely a wall-clock knob:
	// results are byte-identical at any setting. Not part of any
	// scenario hash or run fingerprint.
	NodeWorkers int

	// Faults supplies partitions, manager kills/pauses, and node plans;
	// nil injects nothing.
	Faults *fault.Injector

	// CapWriter, when set, builds each node's cap-write path: every cap
	// the cluster applies to that node — lease grants, the boot cap,
	// reboot quarantine — flows through the returned function instead
	// of the legacy single-retry register write. This is where a
	// hardened rapl.Actuator plugs in per node (the engine exposes the
	// device and clock the actuator needs). Nil keeps the legacy path,
	// byte-identical to clusters before backends existed.
	CapWriter func(eng *engine.Engine) func(capW float64) error
}

func (c *LeasedConfig) validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Policy == nil || c.Budget == nil {
		return fmt.Errorf("cluster: leased config needs a policy and a budget")
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 3 * Epoch
	}
	if c.LeaseTTL < Epoch {
		return fmt.Errorf("cluster: lease TTL %v below the %v control epoch cannot be renewed in time", c.LeaseTTL, Epoch)
	}
	if c.FailoverEpochs == 0 {
		c.FailoverEpochs = 2
	}
	if c.Faults == nil {
		c.Faults = fault.NewInjector(fault.Plan{})
	}
	if err := c.Faults.Plan().Validate(); err != nil {
		return fmt.Errorf("cluster: invalid fault plan: %w", err)
	}
	return nil
}

// sharedLog is the journal both managers replicate through: an in-memory
// WAL with a fencing gate. Appends must carry the highest epoch the log
// has seen — a deposed primary's appends fail, which is how it learns it
// was deposed even before reading the log back.
type sharedLog struct {
	buf      bytes.Buffer
	w        *journal.Writer
	maxEpoch uint64
	appends  int
}

func newSharedLog() *sharedLog {
	l := &sharedLog{}
	l.w = journal.NewWriter(&l.buf)
	return l
}

func (l *sharedLog) Append(epoch uint64, rec journal.Record) error {
	if epoch < l.maxEpoch {
		return errFencedAppend
	}
	if err := l.w.Append(rec); err != nil {
		return err
	}
	l.maxEpoch = epoch
	l.appends++
	return nil
}

func (l *sharedLog) Appends() int     { return l.appends }
func (l *sharedLog) MaxEpoch() uint64 { return l.maxEpoch }

func (l *sharedLog) Replay() ([]journal.Record, error) {
	recs, st, err := journal.ReplayBytes(l.buf.Bytes())
	if err != nil {
		return nil, err
	}
	if st.DamagedTail {
		return nil, fmt.Errorf("cluster: shared journal damaged: %s", st.TailError)
	}
	return recs, nil
}

// leasedManager is one replica of the job manager.
type leasedManager struct {
	name    string
	primary bool
	epoch   uint64 // fencing epoch of this replica's current reign
	arb     *lease.Arbiter
	inbox   *pubsub.LanedQueue

	// Failover detection (standby): epochs the shared log stayed still.
	lastAppends int
	staleEpochs int

	// Pending grants journaled but not yet sent — a pause tore the epoch
	// between WAL append and delivery; flushed (stale) on resume.
	pending []lease.Lease

	// Telemetry feedback by node index: the policy feedback and
	// watchdog, whether the node reported since the last drain, and
	// whether its last report said done.
	fb    []feedback
	heard []bool
	done  []bool

	acks uint64
}

func newLeasedManager(name string, nodes int) *leasedManager {
	return &leasedManager{
		name:  name,
		inbox: pubsub.NewLanedQueue(inboxLaneDepth, inboxLaneDepth),
		fb:    make([]feedback, nodes),
		heard: make([]bool, nodes),
		done:  make([]bool, nodes),
	}
}

// demote steps a deposed primary down to standby.
func (m *leasedManager) demote() {
	m.primary = false
	m.arb = nil
}

// LeasedResult is the job-level outcome plus the distributed-safety
// counters the partition experiments assert on.
type LeasedResult struct {
	Result
	// EnforcedTrace is Σ(latched register caps) over the nodes actually
	// running each epoch — the physically enforceable draw bound.
	EnforcedTrace *trace.Series
	// PeakOvershootW is the worst EnforcedTrace excursion above the
	// budget (0 when the safety invariant held everywhere, which it must).
	PeakOvershootW float64

	Failovers         int    // standby takeovers
	GrantsIssued      uint64 // leases journaled and charged
	FencedGrants      uint64 // grants a node rejected as stale (split-brain blocked)
	ExpiredOnArrival  uint64 // grants delivered after their own TTL
	UndeliveredGrants uint64 // grants eaten by a partition
	ExpiredReverts    uint64 // node deadman trips (revert to safe cap)
}

// LeasedCluster drives a node set under the replicated leasing manager.
type LeasedCluster struct {
	core
	cfg      LeasedConfig
	names    []string       // node names, in node order
	index    map[string]int // node name → index
	managers []*leasedManager
	log      *sharedLog
	res      *LeasedResult
}

// NewLeasedCluster assembles the replicated manager pair over the nodes.
// Every node is booted at the safe cap with an armed deadman before the
// first epoch, so the cluster is never uncapped: overshoot is zero by
// construction, not by luck.
func NewLeasedCluster(cfg LeasedConfig, nodes ...*LeasedNode) (*LeasedCluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	lc := &LeasedCluster{cfg: cfg, index: map[string]int{}, log: newSharedLog(), res: &LeasedResult{
		Result:        newResult("cluster.lease.", nodes),
		EnforcedTrace: trace.NewSeries("cluster.lease.enforced", "W"),
	}}
	lc.core = core{nodes: nodes, faults: cfg.Faults, pool: shardPool{workers: cfg.NodeWorkers}, result: &lc.res.Result}
	safeCap := cfg.Cluster.QuarantineCapW
	for i, n := range nodes {
		if _, dup := lc.index[n.name]; dup || n.name == "" {
			return nil, fmt.Errorf("cluster: empty or duplicate node name %q", n.name)
		}
		lc.index[n.name] = i
		lc.names = append(lc.names, n.name)

		if cfg.CapWriter != nil {
			n.writeCap = cfg.CapWriter(n.eng)
		}
		h, err := lease.NewHolder(n.name, safeCap, n.writeCap)
		if err != nil {
			return nil, err
		}
		n.holder = h
		if err := n.eng.SetDeadman(rapl.Deadman{TTL: cfg.LeaseTTL, DefaultCapW: safeCap}); err != nil {
			return nil, err
		}
		// Boot cap: the node starts at the safe cap, never uncapped.
		if err := n.writeCap(safeCap); err != nil {
			return nil, fmt.Errorf("cluster: boot cap on %s: %w", n.name, err)
		}
	}
	m0 := newLeasedManager(PrimaryManager, len(nodes))
	m1 := newLeasedManager(StandbyManager, len(nodes))
	m0.primary = true
	m0.epoch = 1
	arb, err := lease.NewArbiter(cfg.Budget(0), safeCap, m0.epoch, lc.names...)
	if err != nil {
		return nil, err
	}
	m0.arb = arb
	lc.managers = []*leasedManager{m0, m1}
	return lc, nil
}

// Elapsed returns the virtual time the cluster has advanced through.
func (lc *LeasedCluster) Elapsed() time.Duration { return lc.elapsed }

// Nodes returns the cluster's nodes, in construction order.
func (lc *LeasedCluster) Nodes() []*LeasedNode { return lc.nodes }

// LeaseTTL returns the configured grant TTL (also every node's deadman
// TTL), so oracles can bound the revert-to-safe-cap window.
func (lc *LeasedCluster) LeaseTTL() time.Duration { return lc.cfg.LeaseTTL }

// SafeCapW returns the quarantine cap nodes revert to.
func (lc *LeasedCluster) SafeCapW() float64 { return lc.cfg.Cluster.QuarantineCapW }

// ReplayGrants replays the shared manager journal and returns every
// journaled grant plus the highest fencing epoch and sequence stamped
// anywhere — the ledger view of the WAL. Because grants are journaled
// before they are sent, every lease a node has ever enforced must appear
// here; the soak journal oracle checks exactly that.
func (lc *LeasedCluster) ReplayGrants() ([]lease.Lease, uint64, uint64, error) {
	recs, err := lc.log.Replay()
	if err != nil {
		return nil, 0, 0, err
	}
	grants, maxEpoch, maxSeq := lease.FromRecords(recs)
	return grants, maxEpoch, maxSeq, nil
}

// ManagerInboxStats returns one manager's per-lane inbox counters.
func (lc *LeasedCluster) ManagerInboxStats(name string) (control, telemetry pubsub.LaneStats, ok bool) {
	for _, m := range lc.managers {
		if m.name == name {
			c, t := m.inbox.Stats()
			return c, t, true
		}
	}
	return pubsub.LaneStats{}, pubsub.LaneStats{}, false
}

// EnforcedCapW sums the latched register caps of the nodes currently
// running (crashed and finished nodes draw no package power). This is
// the left side of the safety invariant the property test checks
// against the budget.
func (lc *LeasedCluster) EnforcedCapW(now time.Duration) (float64, error) {
	var sum float64
	for _, n := range lc.nodes {
		if n.eng.Done() || lc.crashed(n.name, now) {
			continue
		}
		capW, err := registerCapW(n.eng.Device())
		if err != nil {
			return 0, err
		}
		if capW == 0 {
			// An uncapped register would make the invariant vacuous; it
			// must never happen after the boot cap.
			return 0, fmt.Errorf("cluster: node %s register uncapped", n.name)
		}
		sum += capW
	}
	return sum, nil
}

// Step advances the cluster one epoch: managers act on last epoch's
// telemetry, nodes advance and report, metrics are collected. It reports
// whether the job is done.
func (lc *LeasedCluster) Step() (bool, error) {
	if lc.finished {
		return true, errStepAfterFinish
	}
	now := lc.elapsed
	budgetW := lc.cfg.Budget(now)
	// Stamped at the epoch's end instant, like every other per-epoch
	// series (caps, enforced sum, progress) — one timestamp per epoch.
	lc.res.BudgetTrace.Add(now+Epoch, budgetW)

	// 1. Manager phase. Fixed replica order keeps runs deterministic.
	for _, m := range lc.managers {
		fm := lc.faults.Manager(m.name)
		if fm != nil && (fm.Dead(now) || fm.Paused(now)) {
			continue
		}
		// A replica resuming with an undelivered batch flushes it first —
		// the journaled-but-unsent grants a paused primary still believes
		// it owes its nodes. This is the stale-delivery hazard; node-side
		// fencing is what contains it.
		if len(m.pending) > 0 {
			lc.deliver(m, m.pending, now)
			m.pending = nil
		}
		// A primary that sees a higher epoch in the shared log was deposed
		// while it was away; it demotes without granting.
		if m.primary && lc.log.MaxEpoch() > m.epoch {
			m.demote()
		}
		if m.primary {
			lc.drainInbox(m, now)
			if err := lc.grantCycle(m, budgetW, now); err != nil {
				return false, err
			}
		} else if err := lc.standbyWatch(m, budgetW, now); err != nil {
			return false, err
		}
		m.lastAppends = lc.log.Appends()
	}

	// 2. Node phase: advance engines under node fault plans. A node
	// rebooting within this epoch comes back at the boot (safe) cap with
	// a freshly armed deadman, exactly like initial construction — the
	// pre-crash latched cap did not survive the crash, and its engine
	// clock (frozen for the whole window) must not keep enforcing a cap
	// whose lease charge expired. The reboot write touches only the
	// node's own simulated register.
	err := lc.advance(func(n *Node) error {
		if err := n.writeCap(lc.cfg.Cluster.QuarantineCapW); err != nil {
			return fmt.Errorf("cluster: reboot cap on %s: %w", n.name, err)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	end := lc.elapsed

	// 3. Telemetry phase: running nodes report progress to both replicas,
	// subject to the partition schedule. Crashed nodes are silent — that
	// silence is the watchdog's signal.
	links := lc.faults.Links()
	for _, n := range lc.nodes {
		if lc.crashed(n.name, end) {
			continue
		}
		done := byte('0')
		if n.eng.Done() {
			done = '1'
		}
		payload := []byte(fmt.Sprintf("%.9g %c", n.observedRate(), done))
		msg := pubsub.Message{Topic: TelemetryTopicPrefix + n.name, Payload: payload}
		for _, m := range lc.managers {
			if !links.Cut(n.name, m.name, end) {
				m.inbox.Push(msg, end)
			}
		}
		n.capTrace.Add(end, n.holder.CapAt(end))
	}

	// 4. Safety and progress metrics — the experimenter's view, read from
	// the hardware registers, not the ledger.
	enforced, err := lc.EnforcedCapW(end)
	if err != nil {
		return false, err
	}
	lc.res.EnforcedTrace.Add(end, enforced)
	if over := enforced - budgetW; over > lc.res.PeakOvershootW {
		lc.res.PeakOvershootW = over
	}
	lc.recordProgress(func(i int, n *Node) (float64, bool) {
		if n.eng.Done() || lc.crashed(n.name, end) {
			return 0, false
		}
		rate := n.observedRate()
		base := rate
		for _, m := range lc.managers {
			if b := m.fb[i].baseline; b > base {
				base = b
			}
		}
		return NodeStatus{Rate: rate, Baseline: base}.Normalized(), true
	})
	return lc.Done(), nil
}

// grantCycle is one primary epoch: divide the budget, journal each
// grant (write-ahead), then deliver. The caller has already drained the
// inbox and run the watchdog for this epoch.
func (lc *LeasedCluster) grantCycle(m *leasedManager, budgetW float64, now time.Duration) error {
	safeCap := lc.cfg.Cluster.QuarantineCapW
	m.arb.SetBudget(budgetW)

	// The safe-cap floor of every node is reserved up front (the
	// quarantine slack); the policy divides only the remainder, and each
	// node's lease request is floor + share.
	divisible := budgetW - safeCap*float64(len(lc.nodes))
	if divisible < 0 {
		divisible = 0
	}
	statuses := make([]NodeStatus, len(lc.nodes))
	for i, n := range lc.nodes {
		statuses[i] = NodeStatus{
			Name:     n.name,
			Rate:     m.fb[i].rate,
			Baseline: m.fb[i].baseline,
			Done:     m.done[i],
			Failed:   m.fb[i].watch.fenced,
		}
	}
	shares, err := divide(lc.cfg.Policy, divisible, statuses)
	if err != nil {
		return err
	}

	var grants []lease.Lease
	for i, s := range statuses {
		if s.Done || s.Failed {
			continue // no renewal: the node decays to the safe cap
		}
		// Grants are floored to the register unit before being charged, so
		// the hardware holds no more than the ledger, exactly.
		capReq := floorToUnit(safeCap + shares[i])
		// A grant above the firmware reset cap is fictional — the node
		// cannot draw it, and a register programmed above TDP is a no-op
		// disguised as an allocation. Concentrating a large budget on the
		// few unfenced nodes (everyone else quarantined) hits this.
		if capReq > rapl.FirmwareDefaultCapW {
			capReq = rapl.FirmwareDefaultCapW
		}
		l, ok := m.arb.Grant(s.Name, capReq, lc.cfg.LeaseTTL, now)
		if !ok {
			continue
		}
		if err := lc.log.Append(m.epoch, l.Record(now)); err != nil {
			if errors.Is(err, errFencedAppend) {
				m.demote() // deposed mid-cycle; the grant dies unjournaled and unsent
				return nil
			}
			return err
		}
		lc.res.GrantsIssued++
		grants = append(grants, l)
	}
	if len(grants) == 0 {
		// Idle heartbeat so the standby can tell "nothing to grant" from
		// "primary dead".
		err := lc.log.Append(m.epoch, journal.Record{Kind: journal.KindHeartbeat, At: now, LeaseEpoch: m.epoch})
		if errors.Is(err, errFencedAppend) {
			m.demote()
			return nil
		}
		return err
	}
	if fm := lc.faults.Manager(m.name); fm != nil && fm.TearsSend(now, Epoch) {
		// The pause lands between WAL append and send: the batch stays
		// pending, already charged in the journal, flushed stale on resume.
		m.pending = append(m.pending, grants...)
		return nil
	}
	lc.deliver(m, grants, now)
	return nil
}

// deliver offers grants to their nodes across the (possibly partitioned)
// network and collects the fencing verdicts.
func (lc *LeasedCluster) deliver(m *leasedManager, grants []lease.Lease, now time.Duration) {
	links := lc.faults.Links()
	for _, g := range grants {
		i, ok := lc.index[g.Node]
		if !ok {
			continue
		}
		// A crashed node is unreachable: the grant stays charged in the
		// journal but nothing latches it, same as a partition eating it.
		if lc.crashed(g.Node, now) {
			lc.res.UndeliveredGrants++
			continue
		}
		if links.Cut(m.name, g.Node, now) {
			lc.res.UndeliveredGrants++
			continue
		}
		err := lc.nodes[i].holder.Offer(g, now)
		switch {
		case err == nil:
			if !links.Cut(g.Node, m.name, now) {
				m.inbox.Push(pubsub.Message{Topic: AckTopicPrefix + g.Node}, now)
			}
		case errors.Is(err, lease.ErrFenced):
			lc.res.FencedGrants++
		case errors.Is(err, lease.ErrExpired):
			lc.res.ExpiredOnArrival++
		}
	}
}

// drainInbox consumes everything queued since the replica last looked,
// control lane first, then steps the replica's watchdog over what it
// heard.
func (lc *LeasedCluster) drainInbox(m *leasedManager, now time.Duration) {
	clear(m.heard)
	for {
		msg, lane, ok := m.inbox.Pop(now)
		if !ok {
			break
		}
		if lane == pubsub.LaneControl {
			m.acks++
			continue
		}
		i, known := lc.index[msg.Topic[len(TelemetryTopicPrefix):]]
		var rate float64
		var done byte
		if _, err := fmt.Sscanf(string(msg.Payload), "%g %c", &rate, &done); err != nil || !known {
			continue
		}
		m.heard[i] = true
		m.done[i] = done == '1'
		m.fb[i].see(rate)
	}
	for i := range lc.nodes {
		m.fb[i].watch.observe(m.heard[i], m.done[i])
	}
}

// standbyWatch is one standby epoch: drain the inbox (keeping telemetry
// state warm) and take over when the shared journal has gone still for
// FailoverEpochs. Only the takeover's own grant cycle can fail it: a
// log the standby cannot read or stamp keeps it standby, and the
// deadmen keep the nodes safe meanwhile.
func (lc *LeasedCluster) standbyWatch(m *leasedManager, budgetW float64, now time.Duration) error {
	lc.drainInbox(m, now)
	if lc.log.Appends() != m.lastAppends {
		m.staleEpochs = 0
		return nil
	}
	m.staleEpochs++
	if m.staleEpochs < lc.cfg.FailoverEpochs {
		return nil
	}
	// Failover: replay the WAL, adopt every unexpired grant as a charge
	// (whoever issued it), claim the next fencing epoch, and stamp the
	// log with it before granting anything.
	recs, err := lc.log.Replay()
	if err != nil {
		return nil
	}
	grants, maxEpoch, maxSeq := lease.FromRecords(recs)
	arb, err := lease.NewArbiter(budgetW, lc.cfg.Cluster.QuarantineCapW, maxEpoch+1, lc.names...)
	if err != nil {
		return nil
	}
	arb.Adopt(grants, maxEpoch, maxSeq, now)
	m.arb = arb
	m.epoch = arb.Epoch()
	if err := lc.log.Append(m.epoch, journal.Record{Kind: journal.KindEpochChange, At: now, LeaseEpoch: m.epoch}); err != nil {
		return nil
	}
	m.primary = true
	m.staleEpochs = 0
	lc.res.Failovers++
	// Grant immediately: the takeover epoch should also be the first
	// renewal epoch, shrinking the window in which leases lapse.
	return lc.grantCycle(m, budgetW, now)
}

// Finish finalizes every node engine and returns the job result.
func (lc *LeasedCluster) Finish() (*LeasedResult, error) {
	if !lc.finished {
		for _, n := range lc.nodes {
			lc.res.ExpiredReverts += n.eng.Controller().DeadmanTrips()
		}
	}
	if err := lc.finish(); err != nil {
		return nil, err
	}
	return lc.res, nil
}

// Run advances the job until completion or maxDur of virtual time.
func (lc *LeasedCluster) Run(maxDur time.Duration) (*LeasedResult, error) {
	if err := lc.run(maxDur, lc.Step); err != nil {
		return nil, err
	}
	return lc.Finish()
}
