package engine

import (
	"fmt"
	"sort"
	"strings"

	"progresscap/internal/counters"
	"progresscap/internal/trace"
)

// ResultVersion identifies the engine's result semantics. Run
// fingerprints carry it, so a change that moves any Result bit of an
// unchanged run must bump it: every disk-cached result and pooled
// checkpoint computed under the old semantics then misses instead of
// aliasing the new one. Version 2: rank flushes are deferred across
// RAPL control boundaries.
const ResultVersion = 2

// Signature flattens every observable field of the Result — scalars, all
// per-window samples, every trace point, counter deltas, drop accounting —
// into one string, bit-exact for floats (%b formatting). Two runs are
// "the same run" exactly when their signatures match. The macro-step
// differential test uses it to pin event-horizon stepping to the
// fixed-tick oracle, and the soak harness uses it both for that oracle
// and to verify disk-cached results are byte-faithful reloads.
func (res *Result) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%v|%v|%b|%b|%b|%d\n",
		res.Workload, res.Elapsed, res.Completed, res.EnergyJ, res.DRAMEnergyJ, res.WorkUnits, res.Dropped)
	topics := make([]string, 0, len(res.DropsByTopic))
	for k := range res.DropsByTopic {
		topics = append(topics, k)
	}
	sort.Strings(topics)
	for _, k := range topics {
		fmt.Fprintf(&b, "drop %s=%d\n", k, res.DropsByTopic[k])
	}
	for _, s := range res.Samples {
		fmt.Fprintf(&b, "s %v %b %d %s\n", s.At, s.Rate, s.Reports, s.Phase)
	}
	evs := make([]counters.Event, 0, len(res.Counters.Deltas))
	for ev := range res.Counters.Deltas {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i] < evs[j] })
	for _, ev := range evs {
		fmt.Fprintf(&b, "c %s=%d\n", ev, res.Counters.Deltas[ev])
	}
	dump := func(name string, s *trace.Series) {
		if s == nil {
			return
		}
		fmt.Fprintf(&b, "t %s", name)
		for _, p := range s.Points() {
			fmt.Fprintf(&b, " %v:%b", p.T, p.V)
		}
		b.WriteByte('\n')
	}
	dump("power", res.PowerTrace)
	dump("core", res.CoreTrace)
	dump("freq", res.FreqTrace)
	dump("duty", res.DutyTrace)
	dump("bw", res.BWTrace)
	dump("rate", res.RateTrace)
	dump("cap", res.CapTrace)
	for _, j := range res.Jobs {
		fmt.Fprintf(&b, "j %s %v %b %d", j.Workload, j.Completed, j.WorkUnits, len(j.Samples))
		for _, rl := range j.RankLoads {
			fmt.Fprintf(&b, " %b/%b/%b", rl.WorkSeconds, rl.SpinSeconds, rl.SleepSeconds)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
