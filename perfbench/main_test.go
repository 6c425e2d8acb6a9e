package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricPrints runs every workload at a tiny scale, untraced and
// traced, and checks that each metric BENCHMARK.json names is reported
// with its unit, both in the JSON result and on its printed line, and
// that no operation failed.
func TestEveryMetricPrints(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	layer := map[string]map[string]float64{}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: w.Name, seed: 7, seconds: 0.2, trace: traced, scale: 0.25, traceDir: t.TempDir()}
				res, err := execute(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d of %d:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				values := map[string]float64{}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
						continue
					}
					if !strings.Contains(out.String(), fmt.Sprintf("%s = %.6g %s", m.Name, got.Value, m.Unit)) {
						t.Errorf("metric %s not printed with its unit", m.Name)
					}
					values[m.Name] = got.Value
				}
				if !strings.Contains(out.String(), "fail_ratio = 0 ratio") {
					t.Errorf("fail_ratio line missing:\n%s", out.String())
				}
				if traced {
					layer[w.Name] = values
				}
			})
		}
	}
	// The shape of the per-layer numbers that does not depend on timing.
	if r := layer["node-capped"]["msr.reads_per_vs"]; r < 100 {
		t.Errorf("node-capped msr.reads_per_vs = %v, want the live RAPL loop's hundreds", r)
	}
	if r := layer["characterize"]["msr.reads_per_vs"]; r > 10 {
		t.Errorf("characterize msr.reads_per_vs = %v, want about 0 with RAPL quiescent", r)
	}
	if r := layer["sweep-forked"]["experiments.fork_hit_rate"]; r <= 0 {
		t.Errorf("sweep-forked experiments.fork_hit_rate = %v, want > 0", r)
	}
}

// TestHostSeconds checks that hostSeconds takes out the hypervisor's
// steal from the process and keeps the process's own idle time.
func TestHostSeconds(t *testing.T) {
	at := func(wall, cpu, busy, steal float64) hostSample {
		return hostSample{wall: time.Unix(0, 0).Add(time.Duration(wall * float64(time.Second))), cpu: cpu, vmBusy: busy, vmSteal: steal}
	}
	zero := at(0, 0, 0, 0)
	for _, c := range []struct {
		name string
		end  hostSample
		want float64
	}{
		{"serial, half a second stolen", at(1.5, 1, 1, 0.5), 1},
		{"two workers, a second of lost overlap", at(2, 2, 2, 0), 2},
		{"steal shared with another process", at(1.25, 1, 2, 0.5), 1},
		{"no /proc/stat", at(1.5, 1, 0, 0), 1.5},
	} {
		if got := hostSeconds(zero, c.end); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: hostSeconds = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestScaledToReferenceHost checks that a phase on a host twice as slow
// as the reference host reports twice its measured rate and half its
// measured set-up time.
func TestScaledToReferenceHost(t *testing.T) {
	p := phase{rates: []float64{90, 100, 110}, setupS: []float64{0.4}, refS: []float64{2 * refHostSeconds}}
	if got := p.rate(); math.Abs(got-200) > 1e-9 {
		t.Errorf("rate = %v, want 200", got)
	}
	if got := p.setup(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("setup = %v, want 0.2", got)
	}
	if newReference().seconds() <= 0 {
		t.Error("the reference kernel took no CPU time")
	}
}
