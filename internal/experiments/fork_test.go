package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/policy"
	"progresscap/internal/rapl"
	"progresscap/internal/spec"
	"progresscap/internal/workload"
)

// scratchSig runs rs from scratch on a throwaway runner and returns the
// result signature.
func scratchSig(t *testing.T, rs RunSpec) string {
	t.Helper()
	rs.Forking = false
	res, err := NewRunner(1).Do(rs)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}
	return res.Signature()
}

// TestForkedRunMatchesScratch is the fork oracle: a run that resumes
// from a pooled prefix checkpoint must produce a byte-identical result
// signature to the same spec simulated from scratch. Each case seeds
// the pool with donor runs whose prefixes the target shares, so the
// target actually forks (asserted via the runner's fork counters) at a
// case-specific depth. Cheap enough to run under -race, where it also
// exercises concurrent pool publish/resume.
func TestForkedRunMatchesScratch(t *testing.T) {
	mkAMG := func() *workload.Workload { return apps.AMG(apps.DefaultRanks, 15) }
	mkSTREAM := func() *workload.Workload { return apps.STREAM(apps.DefaultRanks, 100000) }
	step := func(low float64) policy.Scheme {
		return policy.Step{HighW: 140, LowW: low, HighFor: 5 * time.Second, LowFor: 3 * time.Second}
	}
	faultPlan := fault.Plan{
		Seed:   7,
		PubSub: fault.PubSubPlan{DropRate: 0.1, DelayRate: 0.3, MaxDelay: 700 * time.Millisecond, DupRate: 0.05},
		MSR:    fault.MSRPlan{ReadEIORate: 0.02, StaleReadRate: 0.02},
	}

	cases := []struct {
		name   string
		donors []RunSpec
		target RunSpec
	}{
		{
			// Step ladder: caps agree on [0,5), diverge at second 5, so
			// the 90 W and 100 W cells fork from the 80 W cell's depth-4
			// checkpoint.
			name: "step-ladder",
			donors: []RunSpec{
				{Make: mkSTREAM, Scheme: step(80), Seed: 1, MaxSeconds: 8},
				{Make: mkSTREAM, Scheme: step(90), Seed: 1, MaxSeconds: 8},
			},
			target: RunSpec{Make: mkSTREAM, Scheme: step(100), Seed: 1, MaxSeconds: 8},
		},
		{
			// Same scheme, longer horizon: the 12 s cell forks from the
			// 8 s cell's full-depth checkpoint and extends it.
			name:   "horizon-extend",
			donors: []RunSpec{{Make: mkAMG, Scheme: policy.Constant{Watts: 100}, Seed: 3, MaxSeconds: 8, Invariants: true}},
			target: RunSpec{Make: mkAMG, Scheme: policy.Constant{Watts: 100}, Seed: 3, MaxSeconds: 12, Invariants: true},
		},
		{
			// Different scheme types sharing a cap prefix: Constant 140
			// and the Step ladder agree on [0,5), so the fingerprint —
			// which hashes decisions, not scheme identity — shares them.
			name:   "cross-scheme-type",
			donors: []RunSpec{{Make: mkSTREAM, Scheme: policy.Constant{Watts: 140}, Seed: 1, MaxSeconds: 8}},
			target: RunSpec{Make: mkSTREAM, Scheme: step(110), Seed: 1, MaxSeconds: 8},
		},
		{
			name:   "dvfs-pin",
			donors: []RunSpec{{Make: mkAMG, DVFSMHz: 1500, Seed: 2, MaxSeconds: 6}},
			target: RunSpec{Make: mkAMG, DVFSMHz: 1500, Seed: 2, MaxSeconds: 9},
		},
		{
			name:   "uncapped-msr",
			donors: []RunSpec{{Make: mkSTREAM, Seed: 5, MaxSeconds: 6}},
			target: RunSpec{Make: mkSTREAM, Seed: 5, MaxSeconds: 10},
		},
		{
			// Faulted transport: the injector's RNG streams, delay queue,
			// and loss accounting all cross the fork point.
			name:   "faulted",
			donors: []RunSpec{{Make: mkAMG, Scheme: step(80), Seed: 7, MaxSeconds: 8, Faults: faultPlan}},
			target: RunSpec{Make: mkAMG, Scheme: step(95), Seed: 7, MaxSeconds: 8, Faults: faultPlan},
		},
		{
			// Blackout windows that differ only beyond the divergence
			// point truncate identically inside the shared prefix.
			name: "blackout-truncation",
			donors: []RunSpec{{Make: mkAMG, Scheme: step(80), Seed: 7, MaxSeconds: 8, Faults: fault.Plan{
				Seed:   9,
				PubSub: fault.PubSubPlan{DropRate: 0.05, Blackouts: []fault.Window{{From: 6 * time.Second, To: 7 * time.Second}}},
			}}},
			target: RunSpec{Make: mkAMG, Scheme: step(95), Seed: 7, MaxSeconds: 8, Faults: fault.Plan{
				Seed:   9,
				PubSub: fault.PubSubPlan{DropRate: 0.05, Blackouts: []fault.Window{{From: 6 * time.Second, To: 8 * time.Second}}},
			}},
		},
		{
			// sysfs backend: the actuator and emulated powercap zone live
			// outside the engine, so the fork snapshot is composite.
			name: "sysfs-backend",
			donors: []RunSpec{{Make: mkSTREAM, Scheme: policy.Constant{Watts: 110}, Seed: 4, MaxSeconds: 7, Backend: "sysfs", Faults: fault.Plan{
				Seed:     11,
				Powercap: &fault.PowercapPlan{WriteAgainRate: 0.2, WriteEIORate: 0.05},
			}}},
			target: RunSpec{Make: mkSTREAM, Scheme: policy.Constant{Watts: 110}, Seed: 4, MaxSeconds: 10, Backend: "sysfs", Faults: fault.Plan{
				Seed:     11,
				Powercap: &fault.PowercapPlan{WriteAgainRate: 0.2, WriteEIORate: 0.05},
			}},
		},
		{
			// Fixed-tick oracle mode forks too.
			name:   "fixed-tick",
			donors: []RunSpec{{Make: mkSTREAM, Scheme: step(80), Seed: 1, MaxSeconds: 8, FixedTick: true}},
			target: RunSpec{Make: mkSTREAM, Scheme: step(120), Seed: 1, MaxSeconds: 8, FixedTick: true},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := scratchSig(t, tc.target)
			r := NewRunner(2)
			for i := range tc.donors {
				d := tc.donors[i]
				d.Forking = true
				if _, err := r.Do(d); err != nil {
					t.Fatalf("donor %d: %v", i, err)
				}
			}
			before := r.Stats()
			target := tc.target
			target.Forking = true
			res, err := r.Do(target)
			if err != nil {
				t.Fatalf("forked run: %v", err)
			}
			after := r.Stats()
			if after.ForkHits <= before.ForkHits {
				t.Errorf("target did not fork from the pooled prefix (hits %d -> %d)", before.ForkHits, after.ForkHits)
			}
			if got := res.Signature(); got != want {
				t.Errorf("forked signature diverges from scratch:\nfork:    %s\nscratch: %s", got, want)
			}
		})
	}

	// Mid-run actuations from scheduled callbacks and multi-workload
	// nodes are not expressible as a RunSpec, so these cases fork through
	// the pool's primitive directly: a whole-second Checkpoint resumed
	// onto a freshly built engine. Both change the operating point while
	// rank flushes are deferred across control periods.
	engineCases := []struct {
		name       string
		build      func() (*engine.Engine, error)
		depth, dur time.Duration
	}{
		{
			name: "scheduled-dvfs-then-cap",
			build: func() (*engine.Engine, error) {
				e, err := engine.New(engine.DefaultConfig(), mkAMG())
				if err != nil {
					return nil, err
				}
				// A rebuilt engine re-schedules both callbacks; they fire at
				// the resume instant and are skipped there, because their
				// effect is already in the checkpoint.
				at := func(t time.Duration, fn func()) {
					e.Scheduler().At(t, func(time.Duration) {
						if e.Clock().Now() == t {
							fn()
						}
					})
				}
				at(1234500*time.Microsecond, func() { e.SetManualDVFS(1800) })
				at(2678900*time.Microsecond, func() {
					e.Controller().SetManual(false)
					if err := rapl.WriteLimit(e.Device(), 95, 10*time.Millisecond); err != nil {
						panic(err)
					}
				})
				return e, nil
			},
			depth: 3 * time.Second,
			dur:   7 * time.Second,
		},
		{
			name: "multi-workload-capped",
			build: func() (*engine.Engine, error) {
				e, err := engine.NewMulti(engine.DefaultConfig(), apps.AMG(12, 12), apps.LAMMPS(12, 120))
				if err != nil {
					return nil, err
				}
				return e, e.SetScheme(step(85))
			},
			depth: 4 * time.Second,
			dur:   9 * time.Second,
		},
	}
	for _, tc := range engineCases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *engine.Engine {
				e, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			res, err := build().Run(tc.dur)
			if err != nil {
				t.Fatalf("scratch run: %v", err)
			}
			donor := build()
			if err := donor.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := donor.Advance(tc.depth); err != nil {
				t.Fatal(err)
			}
			ck, err := donor.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint at %v: %v", tc.depth, err)
			}
			forked := build()
			if err := forked.Resume(ck); err != nil {
				t.Fatal(err)
			}
			if _, err := forked.Advance(tc.dur - tc.depth); err != nil {
				t.Fatal(err)
			}
			fres, err := forked.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fres.Signature(), res.Signature(); got != want {
				t.Errorf("forked signature diverges from scratch:\nfork:    %s\nscratch: %s", got, want)
			}
		})
	}
}

// TestForkedSoakScenarios replays generated soak scenarios through the
// forking path at two fork depths each — a shallow donor, a deeper
// donor forked from the shallow one, then the full run forked from the
// deeper — and requires signature identity with the scratch run. This
// sweeps the property over the generator's whole scenario space
// (schemes, DVFS pins, fault plans, sysfs backends) instead of
// hand-picked cases.
func TestForkedSoakScenarios(t *testing.T) {
	const want = 10
	got := 0
	for seed := uint64(1); got < want && seed < 200; seed++ {
		sc := spec.Generate(seed)
		if sc.Cluster() {
			continue
		}
		got++
		scheme, err := sc.Operating.Scheme.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w := sc.Workloads[0]
		mk := func() *workload.Workload {
			built, err := w.Build()
			if err != nil {
				panic(err)
			}
			return built
		}
		base := RunSpec{
			Make:       mk,
			Scheme:     scheme,
			DVFSMHz:    sc.Operating.DVFSMHz,
			Seed:       sc.Seed,
			MaxSeconds: sc.HorizonSec,
			Invariants: true,
			Faults:     sc.Faults,
			Backend:    sc.Operating.Backend,
		}
		wantSig := scratchSig(t, base)

		r := NewRunner(1)
		for _, depth := range []float64{sc.HorizonSec - 4, sc.HorizonSec - 2} {
			if depth < 1 {
				continue
			}
			donor := base
			donor.MaxSeconds = depth
			donor.Forking = true
			if _, err := r.Do(donor); err != nil {
				t.Fatalf("seed %d donor at %gs: %v", seed, depth, err)
			}
		}
		full := base
		full.Forking = true
		res, err := r.Do(full)
		if err != nil {
			t.Fatalf("seed %d forked run: %v", seed, err)
		}
		if st := r.Stats(); st.ForkHits == 0 {
			t.Errorf("seed %d: no fork hits across the donor chain (stats %+v)", seed, st)
		}
		if sig := res.Signature(); sig != wantSig {
			t.Errorf("seed %d: forked signature diverges from scratch", seed)
		}
	}
	if got < want {
		t.Fatalf("generator yielded only %d single-node scenarios, want %d", got, want)
	}
}

// TestSnapshotPoolEviction pins the pool's byte-bounded LRU behavior.
func TestSnapshotPoolEviction(t *testing.T) {
	p := newSnapshotPool(100)
	put := func(key string, size int) { p.put(key, &forkSnapshot{size: size}) }
	put("a", 40)
	put("b", 40)
	if p.get("a") == nil {
		t.Fatal("a evicted below the bound")
	}
	put("c", 40) // exceeds 100: evicts LRU, which is b (a was just touched)
	if p.get("b") != nil {
		t.Error("b survived eviction")
	}
	if p.get("a") == nil || p.get("c") == nil {
		t.Error("a/c evicted out of LRU order")
	}
	put("huge", 1000) // larger than the whole bound: never pooled
	if p.get("huge") != nil {
		t.Error("oversized snapshot was pooled")
	}
	p.drop("a")
	if p.get("a") != nil {
		t.Error("a survived drop")
	}
	// Duplicate put keeps the first entry.
	first := &forkSnapshot{size: 10}
	p.put("dup", first)
	p.put("dup", &forkSnapshot{size: 10})
	if p.get("dup") != first {
		t.Error("duplicate put replaced the pooled snapshot")
	}
}

// TestPruneDiskCache pins the age-based eviction used by -cacheprune.
func TestPruneDiskCache(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	write := func(name string, age time.Duration, size int) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := now.Add(-age)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	write("old.json", 48*time.Hour, 100)
	write("older.json", 72*time.Hour, 50)
	write("fresh.json", time.Hour, 200)
	write("not-cache.txt", 72*time.Hour, 10)

	removed, freed, err := PruneDiskCache(dir, 24*time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || freed != 150 {
		t.Errorf("prune removed %d entries / %d bytes, want 2 / 150", removed, freed)
	}
	for _, keep := range []string{"fresh.json", "not-cache.txt"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Errorf("%s was pruned: %v", keep, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "old.json")); !os.IsNotExist(err) {
		t.Error("old.json survived the prune")
	}
	// A missing directory prunes nothing and is not an error.
	if removed, freed, err := PruneDiskCache(filepath.Join(dir, "absent"), time.Hour, now); err != nil || removed != 0 || freed != 0 {
		t.Errorf("prune of missing dir: %d, %d, %v", removed, freed, err)
	}
}
