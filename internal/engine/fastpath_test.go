package engine

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/rapl"
)

// checkPerfStatus fails unless every core's IA32_PERF_STATUS holds the
// ratio of the domain's current frequency.
func checkPerfStatus(t *testing.T, e *Engine) {
	t.Helper()
	want := msr.RatioFromMHz(e.domain.CurrentMHz())
	for c := 0; c < e.dev.Cores(); c++ {
		got, err := e.dev.ReadCore(c, msr.PerfStatus)
		if err != nil {
			t.Fatalf("at %v: core %d: %v", e.Clock().Now(), c, err)
		}
		if got != want {
			t.Fatalf("at %v: core %d PERF_STATUS %#x, want %#x (%v MHz)",
				e.Clock().Now(), c, got, want, e.domain.CurrentMHz())
		}
	}
}

// advancePeriods advances e one RAPL control period at a time up to the
// instant end, checking PERF_STATUS after each period's Control.
func advancePeriods(t *testing.T, e *Engine, end time.Duration) {
	t.Helper()
	period := e.ctl.ControlPeriod()
	for e.Clock().Now() < end {
		if _, err := e.Advance(period); err != nil {
			t.Fatal(err)
		}
		checkPerfStatus(t, e)
	}
}

// TestPerfStatusTracksOperatingPoint pins the publish-on-change rule:
// skipping unchanged PERF_STATUS pokes must never leave a stale ratio
// behind, whoever moved the domain.
func TestPerfStatusTracksOperatingPoint(t *testing.T) {
	newCapped := func(t *testing.T) *Engine {
		t.Helper()
		e, err := New(DefaultConfig(), apps.LAMMPS(apps.DefaultRanks, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetScheme(policy.Constant{Watts: 110}); err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("scheduled-manual-dvfs", func(t *testing.T) {
		e := newCapped(t)
		at(e, 1234500*time.Microsecond, func() { e.SetManualDVFS(1500) })
		advancePeriods(t, e, 3*time.Second)
		if got := e.domain.CurrentMHz(); got != 1500 {
			t.Fatalf("pinned frequency = %v MHz, want 1500", got)
		}
	})

	t.Run("deadman-trip", func(t *testing.T) {
		e, err := New(DefaultConfig(), apps.LAMMPS(apps.DefaultRanks, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetDeadman(rapl.Deadman{TTL: 1500 * time.Millisecond, DefaultCapW: 80}); err != nil {
			t.Fatal(err)
		}
		advancePeriods(t, e, 3*time.Second)
		if !e.ctl.DeadmanExpired() {
			t.Fatal("deadman did not trip")
		}
		if got := e.domain.CurrentMHz(); got >= e.MaxFreqMHz() {
			t.Fatalf("frequency %v MHz not throttled by the 80 W default cap", got)
		}
	})

	t.Run("resume", func(t *testing.T) {
		donor := newCapped(t)
		if err := donor.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := donor.Advance(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		ck, err := donor.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		forked := newCapped(t)
		if err := forked.Resume(ck); err != nil {
			t.Fatal(err)
		}
		checkPerfStatus(t, forked)
		advancePeriods(t, forked, 4*time.Second)
	})
}

// TestCappedRankFlushRate is the flush-count regression bar of the lazy
// rank flush: on capped LAMMPS the ranks are flushed at workload
// boundaries, windows and operating-point changes, not at each of the
// 1,000 control periods per virtual second.
func TestCappedRankFlushRate(t *testing.T) {
	e, err := New(DefaultConfig(), apps.LAMMPS(apps.DefaultRanks, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetScheme(policy.Constant{Watts: 110}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	perVS := float64(e.rankFlushes) / res.Elapsed.Seconds()
	t.Logf("%d rank flushes over %v: %.0f per virtual second", e.rankFlushes, res.Elapsed, perVS)
	if perVS > 150 {
		t.Fatalf("%.0f rank flushes per virtual second, want at most 150", perVS)
	}
}

// TestLazyFlushMatchesEager bounds what the lazy rule changes. Flushing
// a deferred stretch in one step instead of one step per control period
// moves float bits and counter truncation, nothing more: the same
// iterations complete, time and energy agree with the eager rule to a
// relative 1e-6, and each counter differs by less than the one count
// per core that every flush may truncate.
func TestLazyFlushMatchesEager(t *testing.T) {
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, sc := range macroScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			faulted := false
			run := func(eager bool) (*Result, uint64) {
				e, err := sc.setup(DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				e.flushEvery = eager
				faulted = e.Faults() != nil
				res, err := e.Run(sc.dur)
				if err != nil {
					t.Fatal(err)
				}
				return res, e.rankFlushes * uint64(e.cfg.CPU.Cores)
			}
			lazy, lazyTrunc := run(false)
			eager, eagerTrunc := run(true)
			if lazy.Completed != eager.Completed || lazy.WorkUnits != eager.WorkUnits {
				t.Fatalf("progress differs: completed %v/%v, work units %v/%v",
					lazy.Completed, eager.Completed, lazy.WorkUnits, eager.WorkUnits)
			}
			if d := lazy.Elapsed - eager.Elapsed; d < -time.Microsecond || d > time.Microsecond {
				t.Fatalf("elapsed %v vs %v", lazy.Elapsed, eager.Elapsed)
			}
			if !near(lazy.EnergyJ, eager.EnergyJ) {
				t.Fatalf("energy %v vs %v J", lazy.EnergyJ, eager.EnergyJ)
			}
			if !near(lazy.MeanRate(), eager.MeanRate()) {
				t.Fatalf("mean rate %v vs %v", lazy.MeanRate(), eager.MeanRate())
			}
			if faulted {
				return // glitched counter reads scale a value by up to 1024
			}
			for ev, want := range eager.Counters.Deltas {
				got := lazy.Counters.Deltas[ev]
				if d := math.Abs(float64(got) - float64(want)); d >= float64(lazyTrunc+eagerTrunc) {
					t.Fatalf("counter %v: %d vs %d, beyond truncation bound %d", ev, got, want, lazyTrunc+eagerTrunc)
				}
			}
		})
	}
}

// TestQuiescentRunsFlushEagerly pins that a run whose RAPL controller
// stays quiescent never defers a flush: advanced in chunks that end off
// the window grid (each chunk end is a deferrable instant), uncapped and
// pinned runs are bit-identical to the eager rule.
func TestQuiescentRunsFlushEagerly(t *testing.T) {
	quiescent := map[string]bool{"uncapped-complete": true, "manual-dvfs": true, "manual-ddcm": true}
	for _, sc := range macroScenarios() {
		if !quiescent[sc.name] {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			run := func(eager bool) string {
				e, err := sc.setup(DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				e.flushEvery = eager
				for done := false; !done && e.Clock().Now() < sc.dur; {
					if done, err = e.Advance(333700 * time.Microsecond); err != nil {
						t.Fatal(err)
					}
				}
				res, err := e.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return res.Signature()
			}
			if lazy, eager := run(false), run(true); lazy != eager {
				t.Fatal("quiescent run deferred a rank flush: lazy and eager results differ")
			}
		})
	}
}
