package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"progresscap/internal/engine"
	"progresscap/internal/fault"
)

// cacheFiles returns the non-temp entries in a cache directory.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestDiskCacheCrossInvocation is the contract the soak harness and CI
// rely on: a second, separate Runner sharing the cache directory serves
// an identical spec from disk — zero executions — and the loaded result
// is byte-faithful (same signature as the freshly computed one).
func TestDiskCacheCrossInvocation(t *testing.T) {
	dir := t.TempDir()

	r1 := NewRunner(2)
	if err := r1.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	fresh, err := r1.Do(mkSampleSpec(1, 95))
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Executed != 1 || st.DiskHits != 0 {
		t.Fatalf("first invocation stats: %+v", st)
	}
	if files := cacheFiles(t, dir); len(files) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(files))
	}

	r2 := NewRunner(2)
	if err := r2.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := r2.Do(mkSampleSpec(1, 95))
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executed != 0 || st.DiskHits != 1 {
		t.Fatalf("second invocation stats: %+v", st)
	}
	if loaded.Signature() != fresh.Signature() {
		t.Fatal("disk-cached result is not byte-faithful to the computed one")
	}

	// A different spec misses and executes.
	if _, err := r2.Do(mkSampleSpec(2, 95)); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executed != 1 || st.DiskHits != 1 {
		t.Fatalf("stats after distinct spec: %+v", st)
	}
}

// TestDiskCacheRejectsOldResultVersion: an entry written before the
// engine's result semantics changed (under the previous
// engine.ResultVersion) is a cache miss; the run executes again.
func TestDiskCacheRejectsOldResultVersion(t *testing.T) {
	dir := t.TempDir()
	rs := mkSampleSpec(1, 95)

	r1 := NewRunner(1)
	if err := r1.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Do(rs); err != nil {
		t.Fatal(err)
	}
	// Re-file the entry under the key the previous version computed.
	_, fp := rs.fingerprint()
	cur := filepath.Join(dir, fp.Hash()+".json")
	fp.Version = engine.ResultVersion - 1
	old := filepath.Join(dir, fp.Hash()+".json")
	if old == cur {
		t.Fatal("result version does not key the fingerprint")
	}
	if err := os.Rename(cur, old); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(1)
	if err := r2.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Do(rs); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executed != 1 || st.DiskHits != 0 {
		t.Fatalf("old-version entry served: %+v", st)
	}
}

// TestDiskCacheCorruptTolerance: a truncated or garbage entry is a cache
// miss — the run executes and rewrites the entry — never a panic or error.
func TestDiskCacheCorruptTolerance(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRunner(1)
	if err := r1.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	want, err := r1.Do(mkSampleSpec(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(files))
	}
	if err := os.WriteFile(files[0], []byte(`{"Workload": truncated garba`), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(1)
	if err := r2.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Do(mkSampleSpec(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executed != 1 || st.DiskHits != 0 {
		t.Fatalf("corrupted entry should miss and execute: %+v", st)
	}
	if got.Signature() != want.Signature() {
		t.Fatal("re-executed run diverged from the original")
	}

	// The rewrite healed the entry: a third invocation hits again.
	r3 := NewRunner(1)
	if err := r3.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Do(mkSampleSpec(3, 0)); err != nil {
		t.Fatal(err)
	}
	if st := r3.Stats(); st.DiskHits != 1 {
		t.Fatalf("healed entry should hit: %+v", st)
	}
}

// TestFaultPlanPartOfKey: the same run with and without a fault plan are
// different runs — distinct keys, distinct cache entries.
func TestFaultPlanPartOfKey(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(2)
	if err := r.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	clean := mkSampleSpec(1, 0)
	faulted := mkSampleSpec(1, 0)
	faulted.Faults = fault.Plan{
		Seed:   7,
		PubSub: fault.PubSubPlan{DropRate: 0.3, DelayRate: 0.2, MaxDelay: 100 * time.Millisecond},
	}
	a, err := r.Do(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Do(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 2 || st.CacheHits != 0 {
		t.Fatalf("faulted and clean runs must not share a key: %+v", st)
	}
	if a.Signature() == b.Signature() {
		t.Fatal("fault plan had no observable effect — injection not wired through the Runner")
	}
	if files := cacheFiles(t, dir); len(files) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(files))
	}
}
