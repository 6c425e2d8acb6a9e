// Checkpoint accessors for the RAPL controller and the hardened
// actuator. Controller state is its demand EWMAs, burst average, trim
// integral, quiescence latch, energy-counter positions, and deadman
// bookkeeping; the wiring (device, domain, model, meter pointers) and
// tuning come from construction on the restored side. The deadman's
// configuration (TTL, default cap) is re-installed by the engine's
// checkpoint layer, not carried here.

package rapl

import (
	"time"

	"progresscap/internal/msr"
	"progresscap/internal/simtime"
)

// ControllerState is the mutable state of a Controller.
type ControllerState struct {
	Engaged    float64
	Idle       float64
	Activity   float64
	BWUtil     float64
	Seeded     bool
	FastAvgW   float64
	FastSeeded bool
	TrimW      float64
	Manual     bool

	UncappedIdle bool
	IdleSeq      uint64

	Energy     msr.EnergyCounterState
	DRAMEnergy msr.EnergyCounterState

	Deadman      *Deadman
	ArmSeq       uint64
	ArmAge       time.Duration
	Tripped      bool
	DeadmanTrips uint64
}

// Snapshot captures the controller's state.
func (c *Controller) Snapshot() ControllerState {
	st := ControllerState{
		Engaged:      c.engaged,
		Idle:         c.idle,
		Activity:     c.activity,
		BWUtil:       c.bwUtil,
		Seeded:       c.seeded,
		FastAvgW:     c.fastAvgW,
		FastSeeded:   c.fastSeeded,
		TrimW:        c.trimW,
		Manual:       c.manual,
		UncappedIdle: c.uncappedIdle,
		IdleSeq:      c.idleSeq,
		Energy:       c.energy.Snapshot(),
		DRAMEnergy:   c.dramEnergy.Snapshot(),
		ArmSeq:       c.armSeq,
		ArmAge:       c.armAge,
		Tripped:      c.tripped,
		DeadmanTrips: c.deadmanTrips,
	}
	if c.deadman != nil {
		d := *c.deadman
		st.Deadman = &d
	}
	return st
}

// Restore pours a captured state back into an identically constructed
// controller. The publish hint is dropped: the device may have been
// restored under it, so the next PublishStatus rewrites PERF_STATUS.
func (c *Controller) Restore(st ControllerState) {
	c.published = false
	c.engaged = st.Engaged
	c.idle = st.Idle
	c.activity = st.Activity
	c.bwUtil = st.BWUtil
	c.seeded = st.Seeded
	c.fastAvgW = st.FastAvgW
	c.fastSeeded = st.FastSeeded
	c.trimW = st.TrimW
	c.manual = st.Manual
	c.uncappedIdle = st.UncappedIdle
	c.idleSeq = st.IdleSeq
	c.energy.Restore(st.Energy)
	c.dramEnergy.Restore(st.DRAMEnergy)
	if st.Deadman != nil {
		d := *st.Deadman
		c.deadman = &d
	} else {
		c.deadman = nil
	}
	c.armSeq = st.ArmSeq
	c.armAge = st.ArmAge
	c.tripped = st.Tripped
	c.deadmanTrips = st.DeadmanTrips
}

// BackendSnapshotState is one backend's health-machine position.
type BackendSnapshotState struct {
	Health          Health
	ConsecTransient int
	CleanOps        int
	DownSince       time.Duration
	DownStreak      int
}

// ActuatorState is the mutable state of an Actuator. Backends are
// matched positionally: the restored actuator must be built with the
// same backend list.
type ActuatorState struct {
	Backends []BackendSnapshotState
	RNG      simtime.RNGState
	Counters ActuatorCounters
	Parked   bool
}

// Snapshot captures the actuator's state.
func (a *Actuator) Snapshot() ActuatorState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ActuatorState{
		Backends: make([]BackendSnapshotState, len(a.backends)),
		RNG:      a.rng.State(),
		Counters: a.counters,
		Parked:   a.parked,
	}
	for i, bs := range a.backends {
		st.Backends[i] = BackendSnapshotState{
			Health:          bs.health,
			ConsecTransient: bs.consecTransient,
			CleanOps:        bs.cleanOps,
			DownSince:       bs.downSince,
			DownStreak:      bs.downStreak,
		}
	}
	return st
}

// Restore pours a captured state back into an actuator built over the
// same backend list.
func (a *Actuator) Restore(st ActuatorState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(st.Backends) != len(a.backends) {
		panic("rapl: actuator state backend count mismatch")
	}
	for i, bs := range st.Backends {
		a.backends[i].health = bs.Health
		a.backends[i].consecTransient = bs.ConsecTransient
		a.backends[i].cleanOps = bs.CleanOps
		a.backends[i].downSince = bs.DownSince
		a.backends[i].downStreak = bs.DownStreak
	}
	a.rng.SetState(st.RNG)
	a.counters = st.Counters
	a.parked = st.Parked
}

// EnergyReaderState is the mutable state of an EnergyReader.
type EnergyReaderState struct {
	PrevRaw  uint64
	Primed   bool
	TotalJ   float64
	Failures uint64
}

// Snapshot captures the reader's position.
func (er *EnergyReader) Snapshot() EnergyReaderState {
	return EnergyReaderState{PrevRaw: er.prevRaw, Primed: er.primed, TotalJ: er.totalJ, Failures: er.failures}
}

// Restore pours a captured position back.
func (er *EnergyReader) Restore(st EnergyReaderState) {
	er.prevRaw = st.PrevRaw
	er.primed = st.Primed
	er.totalJ = st.TotalJ
	er.failures = st.Failures
}
