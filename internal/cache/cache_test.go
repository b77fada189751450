package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"starperf/internal/jobs"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMemoryHitMissCounters: the basic get/put cycle drives the
// counters the /metricsz endpoint reports.
func TestMemoryHitMissCounters(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	if _, ok := c.Get("sha256:absent"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("sha256:k1", []byte("v1"))
	got, ok := c.Get("sha256:k1")
	if !ok || string(got) != "v1" {
		t.Fatalf("get after put: %q, %v", got, ok)
	}
	st := c.Stats()
	if st.MemHits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGetReturnsCopy: mutating a returned value must not corrupt the
// stored bytes (the byte-identical guarantee depends on it).
func TestGetReturnsCopy(t *testing.T) {
	c := mustNew(t, Config{})
	c.Put("sha256:k", []byte("payload"))
	v1, _ := c.Get("sha256:k")
	v1[0] = 'X'
	v2, _ := c.Get("sha256:k")
	if string(v2) != "payload" {
		t.Fatalf("stored value corrupted: %q", v2)
	}
}

// TestLRUEvictionByBytes: inserts past MaxBytes evict least recently
// used entries first, with byte accounting and eviction counters.
func TestLRUEvictionByBytes(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 30})
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("sha256:k%d", i), bytes.Repeat([]byte{'a'}, 10))
	}
	// Touch k0 so k1 is the LRU victim of the next insert.
	if _, ok := c.Get("sha256:k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("sha256:k3", bytes.Repeat([]byte{'b'}, 10))
	if _, ok := c.Get("sha256:k1"); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"sha256:k0", "sha256:k2", "sha256:k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, 30 bytes, 3 entries", st)
	}
}

// TestOversizedValueNotPinned: a value larger than the whole bound
// does not wipe the cache and stay resident.
func TestOversizedValueNotPinned(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 16})
	c.Put("sha256:small", []byte("ok"))
	c.Put("sha256:huge", bytes.Repeat([]byte{'h'}, 64))
	if _, ok := c.Get("sha256:huge"); ok {
		t.Fatal("oversized value pinned in memory")
	}
	if c.Stats().Bytes > 16 {
		t.Fatalf("byte bound violated: %+v", c.Stats())
	}
}

// TestDiskTierRoundTrip: a fresh Cache over the same directory serves
// entries written by its predecessor, promoting them into memory.
func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := mustNew(t, Config{Dir: dir})
	c1.Put("sha256:0123456789abcdef0123456789abcdef", []byte(`{"latency":42}`))
	if st := c1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("disk writes = %d, want 1", st.DiskWrites)
	}
	c2 := mustNew(t, Config{Dir: dir})
	got, ok := c2.Get("sha256:0123456789abcdef0123456789abcdef")
	if !ok || string(got) != `{"latency":42}` {
		t.Fatalf("disk round trip: %q, %v", got, ok)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
	// Promoted: the second read is a memory hit.
	if _, ok := c2.Get("sha256:0123456789abcdef0123456789abcdef"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after promotion = %+v, want 1 mem hit", st)
	}
}

// TestDiskFileNames: well-formed hashes use their hex digits as file
// names; arbitrary keys are re-hashed into a safe name inside the
// directory.
func TestDiskFileNames(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Config{Dir: dir})
	c.Put("sha256:00112233445566778899aabbccddeeff", []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, "00112233445566778899aabbccddeeff.json")); err != nil {
		t.Fatalf("expected hex-named file: %v", err)
	}
	c.Put("../escape", []byte("y"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "escape.json" {
			t.Fatal("hostile key escaped sanitisation")
		}
	}
	if got, ok := c.Get("../escape"); !ok || string(got) != "y" {
		t.Fatalf("sanitised key not retrievable: %q %v", got, ok)
	}
}

// TestContains: existence checks touch neither recency nor counters.
func TestContains(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Config{Dir: dir})
	c.Put("sha256:aabbccddeeff00112233445566778899", []byte("v"))
	if !c.Contains("sha256:aabbccddeeff00112233445566778899") {
		t.Fatal("Contains missed a resident key")
	}
	if c.Contains("sha256:ffffffffffffffffffffffffffffffff") {
		t.Fatal("Contains invented a key")
	}
	st := c.Stats()
	if st.MemHits != 0 && st.Misses != 0 {
		t.Fatalf("Contains moved counters: %+v", st)
	}
}

// TestConcurrentAccess exercises the lock paths under the race
// detector.
func TestConcurrentAccess(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 10, Dir: t.TempDir()})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("sha256:%032x", i%7)
				c.Put(key, bytes.Repeat([]byte{byte(w)}, 16))
				c.Get(key)
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheHitByteIdenticalToRecompute is the determinism guarantee
// of the serving layer: the bytes a cache hit returns are exactly the
// bytes a recompute produces — model evaluation is deterministic, the
// canonical encoding is deterministic, and the cache preserves bytes.
func TestCacheHitByteIdenticalToRecompute(t *testing.T) {
	compute := func() []byte {
		g, err := stargraph.New(4)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := model.NewStarPaths(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.Evaluate(model.Config{
			Paths: sp, Top: g, Kind: routing.EnhancedNbc,
			V: 4, MsgLen: 16, Rate: 0.004,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := jobs.CanonicalJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	key, err := jobs.Hash("predict", map[string]any{"n": 4, "v": 4, "m": 16, "rate": 0.004})
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{Dir: t.TempDir()})
	first := compute()
	c.Put(key, first)
	hit, ok := c.Get(key)
	if !ok {
		t.Fatal("no hit after put")
	}
	recompute := compute()
	if !bytes.Equal(hit, recompute) {
		t.Fatalf("cache hit differs from recompute:\n hit  %s\n comp %s", hit, recompute)
	}
	// And through the disk tier of a fresh cache over the same
	// directory (a process restart, as far as the store can tell).
	dir := t.TempDir()
	cw := mustNew(t, Config{Dir: dir})
	cw.Put(key, first)
	cr := mustNew(t, Config{Dir: dir})
	fromDisk, ok := cr.Get(key)
	if !ok {
		t.Fatal("disk tier lost the entry")
	}
	if !bytes.Equal(fromDisk, recompute) {
		t.Fatalf("disk hit differs from recompute:\n hit  %s\n comp %s", fromDisk, recompute)
	}
}
