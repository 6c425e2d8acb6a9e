package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiffGatesAllocs pins the allocs/op gate: growth beyond the limit
// fails, as does any growth from zero; growth within it and shrinking
// pass.
func TestDiffGatesAllocs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs float64) string {
		rep := Report{Benchmarks: []Benchmark{{
			Name:    "BenchmarkX",
			Metrics: map[string]float64{"ns/op": 1000, "allocs/op": allocs},
		}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		old, new float64
		fail     bool
	}{
		{100, 102, false},
		{100, 104, true},
		{100, 50, false},
		{0, 1, true},
		{0, 0, false},
	} {
		err := runDiff([]string{write("old.json", tc.old), write("new.json", tc.new)}, 10, false, io.Discard)
		if failed := err != nil; failed != tc.fail {
			t.Errorf("allocs %v -> %v: err = %v, want failure %v", tc.old, tc.new, err, tc.fail)
		}
		if err != nil && !strings.Contains(err.Error(), "allocs/op") {
			t.Errorf("allocs %v -> %v: error does not name the metric: %v", tc.old, tc.new, err)
		}
	}
}
