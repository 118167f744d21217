package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		entries, assoc int
		ok             bool
	}{
		{256, 1, true},
		{256, 2, true},
		{1024, 16, true},
		{512, FullyAssociative, true},
		{0, 1, false},
		{-4, 1, false},
		{100, 1, false},  // not a power of two
		{256, 3, false},  // not divisible
		{256, -2, false}, // negative
		{8, 16, false},   // assoc > entries
	}
	for _, c := range cases {
		_, err := New(c.entries, c.assoc, ReplLRU)
		if (err == nil) != c.ok {
			t.Errorf("New(%d, %d): err=%v, want ok=%v", c.entries, c.assoc, err, c.ok)
		}
	}
	if _, err := New(256, 2, Replacement(99)); err == nil {
		t.Error("unknown replacement policy accepted")
	}
}

func TestGeometry(t *testing.T) {
	c := MustNew(1024, 2, ReplLRU)
	if c.Entries() != 1024 || c.Assoc() != 2 || c.NumSets() != 512 {
		t.Fatalf("geometry: %d entries, %d ways, %d sets", c.Entries(), c.Assoc(), c.NumSets())
	}
	fa := MustNew(256, FullyAssociative, ReplLRU)
	if fa.NumSets() != 1 || fa.Assoc() != 256 {
		t.Fatalf("fa geometry: %d sets, %d ways", fa.NumSets(), fa.Assoc())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	if _, hit := c.Lookup(5); hit {
		t.Fatal("empty cache hit")
	}
	c.Insert(5, 500)
	ln, hit := c.Lookup(5)
	if !hit || ln.Value != 500 {
		t.Fatalf("hit=%v val=%+v", hit, ln)
	}
	if !ln.Referenced {
		t.Fatal("hit must set Referenced")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	c.Insert(5, 500)
	ln, ok := c.Probe(5)
	if !ok || ln.Referenced {
		t.Fatalf("probe: ok=%v ref=%v", ok, ln.Referenced)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("probe changed stats: %+v", s)
	}
	if _, ok := c.Probe(6); ok {
		t.Fatal("probe hit missing key")
	}
}

func TestInsertOverwritesInPlace(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	c.Insert(5, 500)
	ev, was := c.Insert(5, 501)
	if was {
		t.Fatalf("in-place overwrite evicted %+v", ev)
	}
	ln, _ := c.Probe(5)
	if ln.Value != 501 {
		t.Fatalf("overwrite lost: %d", ln.Value)
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction of an LRU scenario in one 4-way set of a
	// fully-associative cache.
	c := MustNew(4, FullyAssociative, ReplLRU)
	for k := uint64(1); k <= 4; k++ {
		c.Insert(k, k*10)
	}
	c.Lookup(1) // make key 1 most recently used; LRU is now 2
	ev, was := c.Insert(5, 50)
	if !was || ev.Key != 2 {
		t.Fatalf("evicted %+v, want key 2", ev)
	}
	if _, hit := c.Lookup(1); !hit {
		t.Fatal("key 1 should survive")
	}
}

func TestEvictionUnreferencedAccounting(t *testing.T) {
	c := MustNew(2, FullyAssociative, ReplLRU)
	c.Insert(1, 0)
	c.Insert(2, 0)
	c.Lookup(1)    // reference line 1
	c.Insert(3, 0) // evicts 2 (LRU, never referenced)
	ev, _ := c.Probe(3)
	_ = ev
	s := c.Stats()
	if s.Evictions != 1 || s.EvictionsUnreferenced != 1 {
		t.Fatalf("stats: %+v", s)
	}
	c.Insert(4, 0) // evicts 1 (referenced) — LRU after 3's insert
	s = c.Stats()
	if s.Evictions != 2 || s.EvictionsUnreferenced != 1 {
		t.Fatalf("stats after 2nd evict: %+v", s)
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	c := MustNew(16, 1, ReplLRU)
	c.Insert(3, 30)
	// Key 3+16 maps to the same set in a 16-set direct-mapped cache.
	ev, was := c.Insert(19, 190)
	if !was || ev.Key != 3 {
		t.Fatalf("dm conflict eviction: %+v was=%v", ev, was)
	}
	if _, hit := c.Lookup(3); hit {
		t.Fatal("evicted key still resident")
	}
}

func TestSetIsolation(t *testing.T) {
	c := MustNew(16, 1, ReplLRU)
	for k := uint64(0); k < 16; k++ {
		c.Insert(k, k)
	}
	// All 16 distinct sets: no evictions.
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("isolated sets evicted: %+v", s)
	}
	for k := uint64(0); k < 16; k++ {
		if _, hit := c.Lookup(k); !hit {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestCheckedLRUPrefersCheckedVictims(t *testing.T) {
	c := MustNew(4, FullyAssociative, ReplCheckedLRU)
	for k := uint64(1); k <= 4; k++ {
		c.Insert(k, 0)
	}
	// Mark key 3 checked; it should be evicted even though 1 is LRU.
	ln, _ := c.Probe(3)
	ln.Checked = true
	ev, was := c.Insert(5, 0)
	if !was || ev.Key != 3 {
		t.Fatalf("checked-LRU evicted %+v, want key 3", ev)
	}
}

func TestCheckedLRUFallsBackToLRU(t *testing.T) {
	c := MustNew(4, FullyAssociative, ReplCheckedLRU)
	for k := uint64(1); k <= 4; k++ {
		c.Insert(k, 0)
	}
	// No line checked: plain LRU applies (key 1).
	ev, was := c.Insert(5, 0)
	if !was || ev.Key != 1 {
		t.Fatalf("fallback evicted %+v, want key 1", ev)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	c.Insert(7, 70)
	if !c.Invalidate(7) {
		t.Fatal("invalidate missed resident key")
	}
	if _, hit := c.Lookup(7); hit {
		t.Fatal("invalidated key still hits")
	}
	if c.Invalidate(7) {
		t.Fatal("double invalidate succeeded")
	}
	// Invalidations are not evictions.
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestVisitAndCounts(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	for k := uint64(0); k < 6; k++ {
		c.Insert(k, 0)
	}
	c.Lookup(0)
	ln, _ := c.Probe(1)
	ln.Checked = true
	n := 0
	c.Visit(func(*Line) { n++ })
	if n != 6 {
		t.Fatalf("visited %d lines", n)
	}
	if got := c.CountUnchecked(); got != 5 {
		t.Fatalf("unchecked = %d", got)
	}
	if got := c.ResidentUnreferenced(); got != 5 {
		t.Fatalf("unreferenced = %d", got)
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	c.Insert(1, 0)
	c.Lookup(1)
	c.ResetStats()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats not reset: %+v", s)
	}
	if _, hit := c.Lookup(1); !hit {
		t.Fatal("reset stats must not drop contents")
	}
}

func TestParity64(t *testing.T) {
	if Parity64(0) {
		t.Error("parity of 0")
	}
	if !Parity64(1) {
		t.Error("parity of 1")
	}
	if Parity64(3) {
		t.Error("parity of 0b11")
	}
	if err := quick.Check(func(v uint64, bit uint8) bool {
		// Flipping any single bit flips parity.
		return Parity64(v) != Parity64(v^(1<<uint(bit%64)))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: contents behave like a bounded map — a key inserted and never
// evicted must hit with its latest value.
func TestPropertyInsertedKeysHitUntilEvicted(t *testing.T) {
	if err := quick.Check(func(keys []uint16) bool {
		c := MustNew(64, 4, ReplLRU)
		evicted := make(map[uint64]bool)
		latest := make(map[uint64]uint64)
		for i, k16 := range keys {
			k := uint64(k16)
			ev, was := c.Insert(k, uint64(i))
			latest[k] = uint64(i)
			delete(evicted, k)
			if was {
				evicted[ev.Key] = true
			}
		}
		for k, v := range latest {
			ln, hit := c.Probe(k)
			if evicted[k] {
				if hit {
					// Key may have been reinserted after eviction; only
					// fail if values disagree.
					if ln.Value != v {
						return false
					}
				}
				continue
			}
			if !hit || ln.Value != v {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total inserts == hits' complement — every lookup is either a hit
// or a miss, and evictions never exceed inserts.
func TestPropertyStatsConsistency(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		c := MustNew(32, 2, ReplLRU)
		lookups := int64(0)
		for _, op := range ops {
			k := uint64(op % 100)
			if op%2 == 0 {
				c.Lookup(k)
				lookups++
			} else {
				c.Insert(k, 0)
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == lookups &&
			s.Evictions <= s.Inserts &&
			s.EvictionsUnreferenced <= s.Evictions
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity and only grows via inserts.
func TestPropertyOccupancyBounded(t *testing.T) {
	if err := quick.Check(func(keys []uint16, assocSel uint8) bool {
		assoc := []int{1, 2, 4, FullyAssociative}[assocSel%4]
		c := MustNew(16, assoc, ReplLRU)
		for _, k := range keys {
			c.Insert(uint64(k), 0)
			n := 0
			c.Visit(func(*Line) { n++ })
			if n > 16 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLinePacked pins the line layout: every ITR cache and every snapshot of
// one holds these by the thousand.
func TestLinePacked(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 48", got)
	}
}
