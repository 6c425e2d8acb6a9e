package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := DefaultModel()
	bad.AlphaHW = 5
	if bad.Validate() == nil {
		t.Error("alpha=5 validated")
	}
	bad = DefaultModel()
	bad.CoreDynMaxW = 0
	if bad.Validate() == nil {
		t.Error("zero dynamic power validated")
	}
	bad = DefaultModel()
	bad.ActivityFloor = 1.5
	if bad.Validate() == nil {
		t.Error("activity floor >1 validated")
	}
}

func TestActivityFactorRange(t *testing.T) {
	m := DefaultModel()
	if got := m.ActivityFactor(0); got != m.ActivityFloor {
		t.Fatalf("act(0) = %v", got)
	}
	if got := m.ActivityFactor(1); got != 1 {
		t.Fatalf("act(1) = %v", got)
	}
	if got := m.ActivityFactor(-5); got != m.ActivityFloor {
		t.Fatalf("act(-5) = %v", got)
	}
	if got := m.ActivityFactor(5); got != 1 {
		t.Fatalf("act(5) = %v", got)
	}
}

func TestCorePowerMonotoneInFrequency(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for f := 1000.0; f <= 3300; f += 100 {
		p := m.CorePowerPerCore(f, 1, 1, true)
		if p <= prev {
			t.Fatalf("core power not monotone at %v MHz: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestIdleCoreDrawsStaticOnly(t *testing.T) {
	m := DefaultModel()
	if got := m.CorePowerPerCore(3300, 1, 1, false); got != m.CoreStaticW {
		t.Fatalf("idle core power = %v, want %v", got, m.CoreStaticW)
	}
}

func TestCorePowerAggregation(t *testing.T) {
	m := DefaultModel()
	per := m.CorePowerPerCore(2600, 1, 0.8, true)
	total := m.CorePower(10, 14, 2600, 1, 0.8)
	want := 10*per + 14*m.CoreStaticW
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("CorePower = %v, want %v", total, want)
	}
}

func TestUncorePowerClampsUtil(t *testing.T) {
	m := DefaultModel()
	if got := m.UncorePower(2, 1); got != m.UncoreStaticW+m.UncoreDynMaxW {
		t.Fatalf("clamped high = %v", got)
	}
	if got := m.UncorePower(-1, 1); got != m.UncoreStaticW {
		t.Fatalf("clamped low = %v", got)
	}
	mid := m.UncorePower(0.5, 0.5)
	want := m.UncoreStaticW + m.UncoreDynMaxW*0.25
	if math.Abs(mid-want) > 1e-9 {
		t.Fatalf("mid = %v, want %v", mid, want)
	}
}

func TestCalibrationOperatingPoints(t *testing.T) {
	// Sanity-check the DefaultModel lands near the paper's regime:
	// a compute-bound 24-core code uncapped should draw 150-220 W package.
	m := DefaultModel()
	b := m.Power(NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 1, BWUtil: 0.05, BWScale: 1})
	if b.PkgW() < 150 || b.PkgW() > 220 {
		t.Fatalf("compute-bound uncapped package power = %v W, want 150-220", b.PkgW())
	}
	// A bandwidth-saturating code should push 40+ W into the uncore.
	b2 := m.Power(NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 0.37, BWUtil: 1, BWScale: 1})
	if b2.UncoreW < 40 {
		t.Fatalf("memory-bound uncore power = %v W, want >= 40", b2.UncoreW)
	}
}

func TestFreqForCoreBudgetInvertsModel(t *testing.T) {
	m := DefaultModel()
	for _, budget := range []float64{40, 80, 120, 160} {
		f, ok := m.FreqForCoreBudget(budget, 24, 0, 1, 1000, 3300)
		if !ok && budget >= 40 {
			// Even 40 W may be below the floor; only check consistency below.
			continue
		}
		got := m.CorePower(24, 0, f, 1, 1)
		if got > budget+1e-6 {
			t.Fatalf("budget %v W: freq %v gives %v W (over budget)", budget, f, got)
		}
	}
}

func TestFreqForCoreBudgetSaturatesHigh(t *testing.T) {
	m := DefaultModel()
	f, ok := m.FreqForCoreBudget(10000, 24, 0, 1, 1000, 3300)
	if !ok || f != 3300 {
		t.Fatalf("huge budget: f=%v ok=%v", f, ok)
	}
}

func TestFreqForCoreBudgetBelowFloor(t *testing.T) {
	m := DefaultModel()
	f, ok := m.FreqForCoreBudget(10, 24, 0, 1, 1000, 3300)
	if ok {
		t.Fatalf("10 W for 24 cores fit: f=%v", f)
	}
	if f != 1000 {
		t.Fatalf("below-floor frequency = %v, want min", f)
	}
}

func TestFreqForCoreBudgetNoEngagedCores(t *testing.T) {
	m := DefaultModel()
	f, ok := m.FreqForCoreBudget(50, 0, 24, 1, 1000, 3300)
	if !ok || f != 3300 {
		t.Fatalf("idle package: f=%v ok=%v", f, ok)
	}
}

// Property: FreqForCoreBudget never returns an operating point above
// budget when ok is true.
func TestFreqForCoreBudgetProperty(t *testing.T) {
	m := DefaultModel()
	prop := func(budgetRaw uint8, actRaw uint8) bool {
		budget := 20 + float64(budgetRaw) // 20..275 W
		a := float64(actRaw) / 255
		f, ok := m.FreqForCoreBudget(budget, 24, 0, a, 1000, 3300)
		if !ok {
			return f == 1000
		}
		return m.CorePower(24, 0, f, 1, a) <= budget+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterEnergyIntegration(t *testing.T) {
	m := DefaultModel()
	mt := NewMeter(m, 0.01)
	s := NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	want := m.Power(s).PkgW() * 2.0
	for i := 0; i < 2000; i++ {
		mt.Observe(s, 0.001)
	}
	if math.Abs(mt.EnergyJ()-want) > 1e-6 {
		t.Fatalf("EnergyJ = %v, want %v", mt.EnergyJ(), want)
	}
	coreJ, uncoreJ := mt.ComponentEnergyJ()
	if math.Abs(coreJ+uncoreJ-mt.EnergyJ()) > 1e-6 {
		t.Fatalf("component energies %v+%v != total %v", coreJ, uncoreJ, mt.EnergyJ())
	}
}

func TestMeterEWMAConverges(t *testing.T) {
	m := DefaultModel()
	mt := NewMeter(m, 0.005)
	low := NodeState{EngagedCores: 24, FreqMHz: 1000, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	high := NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	mt.Observe(low, 0.001)
	for i := 0; i < 100; i++ {
		mt.Observe(high, 0.001)
	}
	want := m.Power(high).PkgW()
	if math.Abs(mt.AvgPkgW()-want) > 0.5 {
		t.Fatalf("EWMA = %v, want ~%v after 20 time constants", mt.AvgPkgW(), want)
	}
}

func TestMeterFirstObservationSeedsAverage(t *testing.T) {
	m := DefaultModel()
	mt := NewMeter(m, 1)
	s := NodeState{EngagedCores: 1, FreqMHz: 2000, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	b := mt.Observe(s, 0.001)
	if mt.AvgPkgW() != b.PkgW() {
		t.Fatalf("first observation: avg=%v, want %v", mt.AvgPkgW(), b.PkgW())
	}
}

func TestMeterPanicsOnBadInput(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewMeter(tau=0) did not panic")
			}
		}()
		NewMeter(DefaultModel(), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Observe(dt<0) did not panic")
			}
		}()
		NewMeter(DefaultModel(), 1).Observe(NodeState{}, -1)
	}()
}

// TestMeterMatchesModelPower pins the meter's memoized frequency term and
// EWMA decay to an unmemoized reference, bit for bit: every P-state (and
// off-grid frequencies that share memo slots with them) × duty ×
// activity, with the interval alternating so the decay memo both hits
// and misses, and with the meter periodically replaced by a fresh one
// restored from a snapshot, whose memos start cold.
func TestMeterMatchesModelPower(t *testing.T) {
	m := DefaultModel()
	const tau = 0.010
	freqs := []float64{1031, 1234.5, 3331}
	for f := 1000.0; f <= 3300; f += 100 {
		freqs = append(freqs, f)
	}
	dts := []float64{0.001, 0.00037, 0.001}

	mt := NewMeter(m, tau)
	var refAvg float64
	refHave := false
	step := 0
	for _, f := range freqs {
		for _, duty := range []float64{1.0 / 16, 0.5, 1} {
			for _, act := range []float64{0, 0.37, 1} {
				// Dither against the minimum P-state, as a capped
				// controller does between neighbouring P-states.
				for _, fq := range []float64{f, 1000, f} {
					s := NodeState{
						EngagedCores: 20, IdleCores: 4, FreqMHz: fq, Duty: duty,
						Activity: act, BWUtil: 0.4, BWScale: 0.8,
					}
					dt := dts[step%len(dts)]
					step++

					want := m.Power(s)
					coreW := float64(s.EngagedCores)*(m.CoreStaticW+
						m.CoreDynMaxW*duty*m.ActivityFactor(act)*math.Pow(fq/m.RefMHz, m.AlphaHW)) +
						float64(s.IdleCores)*m.CoreStaticW
					if math.Float64bits(want.CoreW) != math.Float64bits(coreW) {
						t.Fatalf("Model.Power core %v != closed form %v at %+v", want.CoreW, coreW, s)
					}
					if !refHave {
						refAvg, refHave = want.PkgW(), true
					} else {
						d := math.Exp(-dt / tau)
						refAvg = refAvg*d + want.PkgW()*(1-d)
					}

					got := mt.Observe(s, dt)
					if !sameBits(got, want) || !sameBits(mt.Last(), want) {
						t.Fatalf("step %d: Observe = %+v, want %+v at %+v", step, got, want, s)
					}
					if math.Float64bits(mt.AvgPkgW()) != math.Float64bits(refAvg) {
						t.Fatalf("step %d: AvgPkgW = %v, want %v", step, mt.AvgPkgW(), refAvg)
					}
					if step%50 == 0 {
						fresh := NewMeter(m, tau)
						fresh.Restore(mt.Snapshot())
						mt = fresh
					}
				}
			}
		}
	}
}

func sameBits(a, b Breakdown) bool {
	return math.Float64bits(a.CoreW) == math.Float64bits(b.CoreW) &&
		math.Float64bits(a.UncoreW) == math.Float64bits(b.UncoreW) &&
		math.Float64bits(a.DRAMW) == math.Float64bits(b.DRAMW)
}
