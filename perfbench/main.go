// Command perfbench is the end-to-end benchmark of the simulator. It runs
// one named workload from one process, times the benchmark's own calls
// into the simulator's public packages, checks every output, and prints
// the metrics named in BENCHMARK.json. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run records spans around every call and reports the
// per-layer metrics. Run it through run.py, which builds it first:
//
//	python3 perfbench/run.py --workload node-capped --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workers is the number of goroutines that do simulation work at once:
// the runner's parallelism and the fleet's node-shard bound. It is fixed
// at the CPU count of the 2-CPU reference host, so that a larger host
// runs the same schedule.
const workers = 2

// minReps is the fewest timed repetitions a phase makes, however long
// they take: the reported figures are medians over repetitions.
const minReps = 3

// config carries the command line into the workloads.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale shrinks every workload's virtual horizons and fleet size;
	// the benchmark runs at 1, the self-test sets a small value.
	scale    float64
	traceDir string
}

// bench is one workload. A repetition builds its inputs (setup), runs
// the timed part, and has its outputs checked outside the timing.
type bench interface {
	// setup builds every input of one repetition: workload generators,
	// engines, clusters, runners.
	setup(tr *tracer) error
	// run executes the repetition and returns the virtual seconds of
	// results it delivered.
	run(tr *tracer) (vs float64, err error)
	// check verifies the repetition's outputs and returns their digest.
	check(ck *checker) string
	// release drops the previous repetition's engines and results, so
	// that every set-up starts from the same collected heap.
	release()
	// finish runs the once-per-process checks and fidelity numbers on
	// the last repetition.
	finish(ck *checker, q *quality)
}

// quality holds a workload's fidelity against the paper; NaN when the
// workload does not compute the figure.
type quality struct {
	modelErrPct float64
	betaErrPct  float64
	lines       []string
}

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case "node-capped":
		return newNodeCapped(cfg), nil
	case "characterize":
		return newCharacterize(cfg), nil
	case "sweep-forked":
		return newSweep(cfg), nil
	case "fleet":
		return newFleet(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want node-capped, characterize, sweep-forked or fleet)", cfg.workload)
}

// checker counts operations and the ones that failed: errors, invariant
// violations and failed correctness checks alike.
type checker struct {
	attempted, failed int
	problems          []string
}

// expect records one checked operation, failed unless ok.
func (c *checker) expect(ok bool, format string, args ...interface{}) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.problems) < 20 {
			c.problems = append(c.problems, fmt.Sprintf(format, args...))
		}
	}
}

// op records one operation that failed when err is non-nil.
func (c *checker) op(what string, err error) {
	c.expect(err == nil, "%s: %v", what, err)
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// digestOf hashes the given signatures in order.
func digestOf(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metric is one named figure of the final JSON object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{scale: 1}
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: node-capped, characterize, sweep-forked or fleet")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one invocation and prints its human-readable report to
// out; the caller prints the JSON line.
func execute(cfg config, out io.Writer) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	metrics := map[string]metric{}
	put := func(name, unit string, v float64) { metrics[name] = metric{Value: v, Unit: unit} }
	var digest string

	var plain, traced phase
	var tr *tracer
	if !cfg.trace {
		plain = measure(b, budget, true, nil, ck, &digest)
	} else {
		// The traced run measures an untraced half first, so that the
		// tracing overhead is a same-process comparison.
		plain = measure(b, budget/2, true, nil, ck, &digest)
		tr = newTracer()
		traced = measure(b, budget/2, false, tr, ck, &digest)
	}
	// The peak is read before finish, whose once-per-process checks (the
	// sweep's scratch re-run) are not part of the workload.
	peakMB := peakRSSMB()
	q := &quality{modelErrPct: math.NaN(), betaErrPct: math.NaN()}
	b.finish(ck, q)

	fmt.Fprintf(out, "workload %s seed %d: %d timed repetitions of %.0f virtual s\n",
		cfg.workload, cfg.seed, len(plain.rates), plain.repVS)
	fmt.Fprintf(out, "  vs per host s: min %.5g median %.5g max %.5g; vs per wall s, steal included: median %.5g\n",
		minOf(plain.rates), median(plain.rates), maxOf(plain.rates), median(plain.wallRates))
	fmt.Fprintf(out, "  host speed: reference kernel %.4g ms (median of %d), %.4g times its time on the reference host; set-up median %.4g s unscaled\n",
		1e3*median(plain.refS), len(plain.refS), plain.slowdown(), median(plain.setupS))
	fmt.Fprintf(out, "digest %s seed=%d %s\n", cfg.workload, cfg.seed, digest)
	for _, l := range q.lines {
		fmt.Fprintln(out, l)
	}
	failRatio := float64(ck.failed) / float64(max(ck.attempted, 1))
	fmt.Fprintf(out, "fail_ratio = %g ratio (%d of %d operations)\n", failRatio, ck.failed, ck.attempted)
	for _, p := range ck.problems {
		fmt.Fprintln(out, "  failure:", p)
	}
	if !math.IsNaN(q.modelErrPct) {
		fmt.Fprintf(out, "model_err_pct = %.4f %%\n", q.modelErrPct)
	}
	if !math.IsNaN(q.betaErrPct) {
		fmt.Fprintf(out, "beta_err_pct = %.4f %%\n", q.betaErrPct)
	}

	if !cfg.trace {
		put("setup_s", "s", plain.setup())
		put("vsim_per_s", "vs/s", plain.rate())
		put("peak_rss_mb", "MB", peakMB)
	} else {
		layerMetrics(tr, traced, plain, q, put)
		put("trace.overhead_pct", "%", 100*ratio(plain.rate()-traced.rate(), plain.rate()))
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(out, "%s = %.6g %s%s\n", n, m.Value, m.Unit, sampleNote(tr, n))
	}
	return &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: metrics}, nil
}

// phase is one measured stretch of repetitions.
type phase struct {
	setupS []float64 // every repetition's set-up time, warm-up included
	rates  []float64 // virtual s per host second of each timed repetition
	// wallRates is the same per plain wall-clock second, reported but
	// not gated: time the hypervisor stole lands here.
	wallRates []float64
	vs        float64 // virtual seconds delivered by the timed repetitions
	repVS     float64 // virtual seconds one repetition delivers
	// goStats is the Go runtime's work inside the timed repetitions.
	goStats runtimeDelta
	// refS holds the mean CPU seconds of each reference-kernel run,
	// taken on every worker between repetitions (see calibrate.go).
	refS []float64
}

// slowdown is how many times longer the reference kernel took in this
// phase than on the reference host: above 1 on a slower host.
func (p phase) slowdown() float64 {
	if len(p.refS) == 0 {
		return 1
	}
	return median(p.refS) / refHostSeconds
}

// rate is the median rate of the timed repetitions, scaled to the
// reference host's speed: the gated vsim_per_s.
func (p phase) rate() float64 { return median(p.rates) * p.slowdown() }

// setup is the median set-up time, scaled to the reference host's
// speed: the gated setup_s.
func (p phase) setup() float64 { return median(p.setupS) / p.slowdown() }

// refEvery is how often measure times the reference kernel, which adds
// about 3% to a run's wall time.
const refEvery = 500 * time.Millisecond

// hostReference is the kernel every phase is scaled by.
var hostReference = newReference()

// measure runs repetitions until budget host seconds of timed work have
// been measured (and at least minReps), timing the reference kernel
// every refEvery between them. With warm set, the first repetition is
// run and checked but not timed, since it alone pays for a fresh heap
// and cold caches. Set-up time counts for every
// repetition, the first included, since users pay it on every run.
// Only setup and run are timed; the forced collections and the checks
// are not.
func measure(b bench, budget time.Duration, warm bool, tr *tracer, ck *checker, digest *string) phase {
	var p phase
	var busy float64
	var lastRef time.Time
	for rep := 0; busy < budget.Seconds() || len(p.rates) < minReps; rep++ {
		// Each repetition's set-up and run start from a collected heap,
		// so that garbage left by the previous step is not charged to
		// the next one.
		b.release()
		runtime.GC()
		// The host's speed is sampled beside the repetitions it scales,
		// the warm-up left out, as for the timings.
		if (!warm || rep > 0) && time.Since(lastRef) >= refEvery {
			p.refS = append(p.refS, hostReference.seconds())
			lastRef = time.Now()
		}
		runtime.LockOSThread()
		c0 := threadCPUSeconds()
		err := b.setup(tr)
		p.setupS = append(p.setupS, threadCPUSeconds()-c0)
		runtime.UnlockOSThread()
		if err != nil {
			ck.op("setup", err)
			return p
		}
		runtime.GC()
		h1, g1 := readHost(), readRuntime()
		vs, err := b.run(tr)
		h2 := readHost()
		g := readRuntime().since(g1)
		wall, took := h2.wall.Sub(h1.wall).Seconds(), hostSeconds(h1, h2)
		ck.op("run", err)
		d := b.check(ck)
		if *digest == "" {
			*digest = d
		} else {
			ck.expect(d == *digest, "repetition %d digest %s differs from %s", rep, d, *digest)
		}
		p.repVS = vs
		if warm && rep == 0 {
			continue
		}
		busy += wall
		p.goStats = p.goStats.plus(g)
		p.vs += vs
		p.rates = append(p.rates, vs/took)
		p.wallRates = append(p.wallRates, vs/wall)
	}
	return p
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail returns the highest of p90/p99/p99.9 that has at least ten
// samples beyond it, with its label; the maximum when there are fewer
// than 100 samples (p90 needs 100 for ten beyond it).
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(n)*(1-p.q) >= 10 {
			i := int(math.Ceil(p.q*float64(n))) - 1
			return s[i], p.label
		}
	}
	return s[n-1], "max"
}

// sampleNote annotates a per-layer timing with its sample count and,
// for a tail, the percentile used.
func sampleNote(tr *tracer, metricName string) string {
	if tr == nil {
		return ""
	}
	for span, prefix := range spanMetrics {
		if !strings.HasPrefix(metricName, prefix+"_") {
			continue
		}
		d := tr.durationsMs(span)
		if strings.HasSuffix(metricName, "_tail") {
			_, label := tail(d)
			return fmt.Sprintf("  (%s of n=%d)", label, len(d))
		}
		return fmt.Sprintf("  (n=%d)", len(d))
	}
	return ""
}

// spanMetrics maps each timed call to the prefix of its per-layer
// metrics.
var spanMetrics = map[string]string{
	"engine.New":                 "engine.new_ms",
	"engine.Advance":             "engine.advance_ms",
	"engine.Finish":              "engine.finish_ms",
	"experiments.cell":           "experiments.cell_ms",
	"cluster.Manager.Step":       "cluster.step_ms",
	"cluster.LeasedCluster.Step": "cluster.leased_step_ms",
}

// layerMetrics derives every per-layer metric from the traced phase,
// except the Go runtime's, which come from the untraced phase so that
// the tracer's own allocations do not count. A layer the workload does
// not call reports zero samples as 0.
func layerMetrics(tr *tracer, p, plain phase, q *quality, put func(name, unit string, v float64)) {
	for span, prefix := range spanMetrics {
		d := tr.durationsMs(span)
		put(prefix+"_p50", "ms", median(d))
		if span != "engine.New" && span != "engine.Finish" {
			t, _ := tail(d)
			put(prefix+"_tail", "ms", t)
		}
	}
	c := tr.counters
	perVS := func(v float64) float64 { return ratio(v, p.vs) }
	put("msr.reads_per_vs", "1/vs", perVS(c["msr.reads"]))
	put("msr.writes_per_vs", "1/vs", perVS(c["msr.writes"]))
	put("pubsub.published_per_vs", "1/vs", perVS(c["pubsub.published"]))
	put("pubsub.dropped", "count", c["pubsub.dropped"])
	put("experiments.fork_hit_rate", "ratio", ratio(c["experiments.fork_hits"], c["experiments.fork_runs"]))
	put("experiments.fork_skipped_frac", "ratio", ratio(c["experiments.fork_skipped_s"], c["experiments.delivered_s"]))
	put("experiments.memo_hits", "count", c["experiments.memo_hits"])
	put("experiments.executed", "count", c["experiments.executed"])
	var stepMs float64
	for _, name := range []string{"cluster.Manager.Step", "cluster.LeasedCluster.Step"} {
		for _, d := range tr.durationsMs(name) {
			stepMs += d
		}
	}
	put("cluster.barrier_wait_frac", "ratio", ratio(c["cluster.barrier_wait_ms"], stepMs))
	put("cluster.peak_workers", "count", c["cluster.peak_workers"])
	put("lease.journal_appends_per_epoch", "count", ratio(c["lease.journaled_grants"], c["lease.epochs"]))
	put("go.alloc_mb_per_vs", "MB/vs", ratio(plain.goStats.allocBytes/1e6, plain.vs))
	// Per repetition, since the number of repetitions depends on speed.
	reps := float64(len(plain.rates))
	put("go.gc_cycles", "count", ratio(plain.goStats.gcCycles, reps))
	put("go.gc_pause_ms", "ms", ratio(plain.goStats.gcPauseS*1e3, reps))
	zeroNaN := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	put("model.err_pct", "%", zeroNaN(q.modelErrPct))
	put("model.beta_err_pct", "%", zeroNaN(q.betaErrPct))
}
