package spec

// Run fingerprints: the canonical, hashable identity of one engine run,
// shared by the experiment Runner's memoization and its disk cache. A
// fingerprint is to a RunSpec what a Scenario hash is to a scenario —
// canonical JSON, SHA-256 — so the in-memory memo table, the on-disk
// cache, and CI all agree on when two runs are the same run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"progresscap/internal/fault"
	"progresscap/internal/simtime"
	"progresscap/internal/workload"
)

// PhaseFP is one workload phase's contribution to the fingerprint: its
// declarative fields plus the generator probed at corner coordinates
// with a fixed RNG — deterministic per construction, and sensitive to
// any parameter (jitter amplitude, segment split) the declarative
// fields don't expose.
type PhaseFP struct {
	Name            string    `json:"name"`
	Iterations      int       `json:"iterations"`
	ProgressPerIter float64   `json:"progress_per_iter"`
	Probes          []float64 `json:"probes"`
}

// WorkloadFP is a workload's construction fingerprint.
type WorkloadFP struct {
	Name   string    `json:"name"`
	Metric string    `json:"metric"`
	Ranks  int       `json:"ranks"`
	Phases []PhaseFP `json:"phases"`
}

// FingerprintWorkload probes w at fixed corner coordinates and returns
// its fingerprint. Rank 0 is probed first within each iteration because
// the shared-jitter closures re-draw there, resetting their state.
func FingerprintWorkload(w *workload.Workload) WorkloadFP {
	fp := WorkloadFP{Name: w.Name, Metric: w.Metric, Ranks: w.Ranks}
	probeRNG := simtime.NewRNG(0x9e3779b97f4a7c15)
	for _, p := range w.Phases {
		pf := PhaseFP{Name: p.Name, Iterations: p.Iterations, ProgressPerIter: p.ProgressPerIter}
		iters := []int{0}
		if p.Iterations > 1 {
			iters = append(iters, p.Iterations-1)
		}
		ranks := []int{0}
		if w.Ranks > 1 {
			ranks = append(ranks, 1, w.Ranks-1)
		}
		for _, it := range iters {
			for _, r := range ranks {
				seg := p.Gen(r, it, probeRNG)
				pf.Probes = append(pf.Probes,
					seg.ComputeCycles, seg.MemSeconds, seg.SleepSeconds,
					seg.Instructions, seg.L3Misses, seg.BWShare, seg.WorkUnits)
			}
		}
		fp.Phases = append(fp.Phases, pf)
	}
	return fp
}

// RunFingerprint is the canonical identity of one engine run. Equal
// fingerprints describe byte-identical simulations; the hash is the
// memoization and disk-cache key.
//
// Execution-level knobs — scheduler parallelism, cluster shard worker
// counts, cache directories, anything that changes only wall time —
// must NEVER become fingerprint fields: the hash names a *result*, and
// a result computed on a 64-core machine is byte-identical to one
// computed serially, so the disk cache stays valid across machines.
// TestRunFingerprintFieldSet pins the exact field set.
type RunFingerprint struct {
	// Version is the engine's result version (engine.ResultVersion),
	// not the scenario schema version.
	Version  int        `json:"version"`
	Workload WorkloadFP `json:"workload"`
	// Operating is a rendered operating point: "dvfs:<mhz>",
	// "scheme:<type+params>", or "uncapped".
	Operating  string  `json:"operating"`
	Seed       uint64  `json:"seed"`
	MaxSeconds float64 `json:"max_seconds"`
	Invariants bool    `json:"invariants,omitempty"`
	FixedTick  bool    `json:"fixed_tick,omitempty"`
	// Faults is the run's fault plan; nil when the run injects nothing
	// (the common case, kept out of the JSON so pre-fault keys and
	// fault-free keys coincide structurally).
	Faults *fault.Plan `json:"faults,omitempty"`
	// Backend is the actuation backend; "" is the register-level default
	// (omitted, so pre-backend cache keys are unchanged). It MUST key the
	// cache: sysfs floors caps to µW-quantized register units where the
	// MSR path rounds to nearest, so the same scheme produces different
	// power traces per backend.
	Backend string `json:"backend,omitempty"`
}

// Hash returns the fingerprint's content hash (SHA-256 of the canonical
// JSON, hex). It panics only if the fingerprint contains values JSON
// cannot represent (NaN probes), which no constructible workload does.
func (f RunFingerprint) Hash() string {
	b, err := json.Marshal(f)
	if err != nil {
		panic(fmt.Sprintf("spec: unhashable run fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
