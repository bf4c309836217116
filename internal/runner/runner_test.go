package runner

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// intPool builds a pool that squares ints, with optional per-config hooks.
func intPool(workers int) *Pool[int, int] {
	return &Pool[int, int]{
		Workers: workers,
		Run:     func(c int) (int, error) { return c * c, nil },
	}
}

func TestExecutePreservesSubmissionOrder(t *testing.T) {
	// Later jobs sleep less, so completion order inverts submission order;
	// results must still come back by submission index.
	p := &Pool[int, int]{
		Workers: 4,
		Run: func(c int) (int, error) {
			time.Sleep(time.Duration(8-c) * 5 * time.Millisecond)
			return c * 10, nil
		},
	}
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{Label: strconv.Itoa(i), Config: i}
	}
	results := p.Execute(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value != i*10 {
			t.Fatalf("results[%d] = %d, want %d (order not preserved)", i, r.Value, i*10)
		}
		if r.Label != strconv.Itoa(i) {
			t.Fatalf("results[%d].Label = %q", i, r.Label)
		}
	}
}

func TestExecuteCapturesErrorsWithoutWedging(t *testing.T) {
	boom := errors.New("boom")
	p := &Pool[int, int]{
		Workers: 2,
		Run: func(c int) (int, error) {
			if c == 3 {
				return 0, boom
			}
			return c, nil
		},
	}
	jobs := make([]Job[int], 6)
	for i := range jobs {
		jobs[i] = Job[int]{Label: strconv.Itoa(i), Config: i}
	}
	results := p.Execute(jobs)
	for i, r := range results {
		if i == 3 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("job 3 err = %v, want boom", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d failed: %v (failing job wedged the pool?)", i, r.Err)
		}
		if r.Value != i {
			t.Fatalf("job %d value = %d", i, r.Value)
		}
	}
}

func TestExecuteRecoversPanics(t *testing.T) {
	p := &Pool[int, int]{
		Workers: 2,
		Run: func(c int) (int, error) {
			if c == 1 {
				panic("kaboom")
			}
			return c, nil
		},
	}
	results := p.Execute([]Job[int]{{Label: "a", Config: 0}, {Label: "b", Config: 1}, {Label: "c", Config: 2}})
	if results[1].Err == nil {
		t.Fatal("panicking job reported no error")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatal("panic leaked into sibling jobs")
	}
}

func TestExecuteProgressCallbacks(t *testing.T) {
	var mu sync.Mutex
	var seen []Progress
	p := intPool(3)
	p.OnProgress = func(pr Progress) {
		mu.Lock()
		seen = append(seen, pr)
		mu.Unlock()
	}
	jobs := make([]Job[int], 5)
	for i := range jobs {
		jobs[i] = Job[int]{Label: strconv.Itoa(i), Config: i}
	}
	p.Execute(jobs)
	if len(seen) != 5 {
		t.Fatalf("progress callbacks = %d, want 5", len(seen))
	}
	for i, pr := range seen {
		if pr.Done != i+1 || pr.Total != 5 {
			t.Fatalf("callback %d = %d/%d, want %d/5", i, pr.Done, pr.Total, i+1)
		}
	}
}

func TestExecuteEmptyAndSerial(t *testing.T) {
	p := intPool(0) // 0 workers -> GOMAXPROCS
	if got := p.Execute(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	p.Workers = 1
	results := p.Execute([]Job[int]{{Config: 3}, {Config: 4}})
	if results[0].Value != 9 || results[1].Value != 16 {
		t.Fatalf("serial results = %+v", results)
	}
}

// cachedPool counts real runs so tests can observe hits vs misses.
func cachedPool(t *testing.T, dir string, runs *int, runsMu *sync.Mutex) *Pool[int, int] {
	t.Helper()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &Pool[int, int]{
		Workers: 2,
		Run: func(c int) (int, error) {
			runsMu.Lock()
			*runs++
			runsMu.Unlock()
			return c * c, nil
		},
		Cache: cache,
		Key:   func(c int) (string, bool) { return fmt.Sprintf("%064x", c), true },
	}
}

func TestCacheHitMissRoundtrip(t *testing.T) {
	dir := t.TempDir()
	var runs int
	var mu sync.Mutex
	jobs := []Job[int]{{Label: "2", Config: 2}, {Label: "5", Config: 5}}

	p := cachedPool(t, dir, &runs, &mu)
	first := p.Execute(jobs)
	if runs != 2 {
		t.Fatalf("first sweep ran %d jobs, want 2 (cold cache)", runs)
	}
	for _, r := range first {
		if r.Cached {
			t.Fatal("cold cache reported a hit")
		}
	}
	if p.Cache.Len() != 2 {
		t.Fatalf("cache entries = %d, want 2", p.Cache.Len())
	}

	p2 := cachedPool(t, dir, &runs, &mu)
	second := p2.Execute(jobs)
	if runs != 2 {
		t.Fatalf("warm sweep reran jobs (runs = %d)", runs)
	}
	for i, r := range second {
		if !r.Cached {
			t.Fatalf("warm result %d not served from cache", i)
		}
		if r.Value != first[i].Value {
			t.Fatalf("cached value %d != fresh value %d", r.Value, first[i].Value)
		}
	}
}

func TestCacheCorruptEntryReruns(t *testing.T) {
	dir := t.TempDir()
	var runs int
	var mu sync.Mutex
	jobs := []Job[int]{{Label: "7", Config: 7}}

	p := cachedPool(t, dir, &runs, &mu)
	p.Execute(jobs)

	// Corrupt the entry: it no longer decodes, so the job must rerun and
	// rewrite it.
	key, _ := p.Key(7)
	if err := p.Cache.Put(key, []byte("not-a-number")); err != nil {
		t.Fatal(err)
	}
	results := cachedPool(t, dir, &runs, &mu).Execute(jobs)
	if runs != 2 {
		t.Fatalf("corrupt entry did not force a rerun (runs = %d)", runs)
	}
	if results[0].Cached || results[0].Err != nil || results[0].Value != 49 {
		t.Fatalf("corrupt-entry result = %+v", results[0])
	}
	// The rerun must have repaired the entry.
	third := cachedPool(t, dir, &runs, &mu).Execute(jobs)
	if !third[0].Cached || third[0].Value != 49 {
		t.Fatalf("repaired entry not served: %+v", third[0])
	}
}

func TestCacheUncachableJobsBypass(t *testing.T) {
	dir := t.TempDir()
	var runs int
	var mu sync.Mutex
	p := cachedPool(t, dir, &runs, &mu)
	p.Key = func(c int) (string, bool) { return "", false }
	p.Execute([]Job[int]{{Config: 2}})
	p.Execute([]Job[int]{{Config: 2}})
	if runs != 2 {
		t.Fatalf("uncachable job was cached (runs = %d)", runs)
	}
	if p.Cache.Len() != 0 {
		t.Fatalf("uncachable job wrote %d cache entries", p.Cache.Len())
	}
}

func TestCacheRejectsTraversalKeys(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", "a.b"} {
		if err := cache.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted an invalid key", key)
		}
		if _, ok := cache.Get(key); ok {
			t.Fatalf("Get(%q) hit on an invalid key", key)
		}
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	dir := t.TempDir()
	var runs int
	var mu sync.Mutex
	p := cachedPool(t, dir, &runs, &mu)
	p.Run = func(c int) (int, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return 0, errors.New("transient")
	}
	p.Execute([]Job[int]{{Config: 9}})
	if p.Cache.Len() != 0 {
		t.Fatal("failed job wrote a cache entry")
	}
}
