package experiments

// The disk result cache: an opt-in directory of JSON-encoded
// engine.Results named by run content hash, shared across suite
// invocations and CI jobs. Because keys are content hashes of the full
// run fingerprint (workload construction, operating point, seed,
// duration, mode flags, fault plan — see spec.RunFingerprint), a cached
// entry is valid for exactly as long as the simulation it names is
// byte-identical; any change to engine semantics must bump
// engine.ResultVersion, which keys every fingerprint, to invalidate the
// cache wholesale. The scenario schema version (spec.Version) stays put,
// so soak corpus files and scenario hashes survive such a bump.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"progresscap/internal/engine"
)

// EnableDiskCache backs the Runner's memo table with dir: completed runs
// are persisted there and later Runners (other processes included) load
// them instead of re-simulating. The directory is created if missing.
// Must be called before the first Do/Prefetch; the cache is off by
// default so determinism tests always exercise real simulations.
func (r *Runner) EnableDiskCache(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: disk cache: %w", err)
	}
	r.mu.Lock()
	r.cacheDir = dir
	r.mu.Unlock()
	return nil
}

// cachePath maps a run key ("<workload>/<hash>") to its cache file. Only
// the hash portion names the file; the workload prefix is human context.
func (r *Runner) cachePath(key string) string {
	r.mu.Lock()
	dir := r.cacheDir
	r.mu.Unlock()
	if dir == "" {
		return ""
	}
	hash := key
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		hash = key[i+1:]
	}
	return filepath.Join(dir, hash+".json")
}

// loadCached returns the disk-cached result for key, if the cache is
// enabled and holds a well-formed entry. A missing, unreadable, or
// corrupted entry is a cache miss, never an error: the run simply
// executes and rewrites the entry.
func (r *Runner) loadCached(key string) (*engine.Result, bool) {
	path := r.cachePath(key)
	if path == "" {
		return nil, false
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var res engine.Result
	if err := json.Unmarshal(b, &res); err != nil {
		// Corrupted entry (truncated write from a killed process, manual
		// tampering): drop it so the rewrite below gets a clean slate.
		os.Remove(path)
		return nil, false
	}
	return &res, true
}

// saveCached persists a completed run. The write is atomic — temp file
// in the same directory, then rename — so a concurrent reader (another
// suite process sharing the cache) sees either the old entry or the
// complete new one, never a torn write. Persistence is best-effort:
// failure to write the cache never fails the run.
func (r *Runner) saveCached(key string, res *engine.Result) {
	path := r.cachePath(key)
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(append(b, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// PruneDiskCache removes cache entries older than age (by modification
// time) from dir, returning the number of entries removed and the bytes
// freed. Only the cache's own ".json" files are candidates; anything
// else in the directory is left alone. A missing directory prunes
// nothing. Removal races (another process pruning concurrently) are
// ignored; other I/O errors abort with what was freed so far.
func PruneDiskCache(dir string, age time.Duration, now time.Time) (removed int, freed int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("experiments: cache prune: %w", err)
	}
	cutoff := now.Add(-age)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue // deleted under us: not ours anymore
		}
		if !info.ModTime().Before(cutoff) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if rerr := os.Remove(path); rerr != nil {
			if os.IsNotExist(rerr) {
				continue
			}
			return removed, freed, fmt.Errorf("experiments: cache prune: %w", rerr)
		}
		removed++
		freed += info.Size()
	}
	return removed, freed, nil
}
