// Package cache implements a generic set-associative cache engine with true
// LRU replacement. It backs the ITR cache (keys are trace start PCs, values
// are trace signatures) and the access-counting models used for the energy
// comparison of the paper's Section 5.
//
// Associativity spans the full design space of the paper's Section 3:
// direct-mapped, 2/4/8/16-way, and fully associative.
//
// The engine is the inner loop of the design-space sweep (tens of millions
// of lookups per figure), so its layout is chosen for simulation speed, not
// hardware fidelity: all lines live in one flat array (stable pointers, one
// allocation), tag scans run over a separate compact key array (8 bytes per
// way instead of a full Line), and high-associativity sets — where a linear
// scan would be O(entries) — carry a map index plus an intrusive LRU list
// giving O(1) lookup and O(1) victim selection.
package cache

import (
	"fmt"
	"math/bits"
	"sort"
)

// Replacement selects a victim line within a set.
type Replacement int

// Replacement policies.
const (
	// ReplLRU evicts the least recently used line (the paper's baseline).
	ReplLRU Replacement = iota + 1
	// ReplCheckedLRU prefers evicting the least recently used line whose
	// Checked flag is set, falling back to plain LRU when no line in the
	// set is checked. This is the optimization sketched in Section 2.3 to
	// avoid evicting unreferenced (unchecked) signatures.
	ReplCheckedLRU
)

// Line is one cache line. Value semantics are owned by the caller (the ITR
// layer stores trace signatures). The flags come last so the line packs into
// 48 bytes.
type Line struct {
	Key   uint64
	Value uint64
	// Aux carries caller-defined per-line metadata (the ITR layer stores
	// the instruction count of the trace that installed the signature).
	Aux uint64
	// Stamp is a caller-defined installation timestamp (the ITR layer
	// stores the committed-instruction count at install, which the
	// checkpointing extension compares against checkpoint ages).
	Stamp int64

	lru uint64

	Valid bool
	// Referenced records whether the line has hit at least once since it
	// was inserted. Evicting a line with Referenced == false is exactly the
	// paper's "eviction of an unreferenced, missed instance" — a loss in
	// fault detection coverage.
	Referenced bool
	// Checked records whether the line's signature has been confirmed
	// against a newly executed instance (used by ReplCheckedLRU).
	Checked bool
	// Parity is the caller-maintained parity bit over Value (Section 2.4).
	Parity bool
}

// Stats counts cache events since construction or the last ResetStats.
type Stats struct {
	Hits                  int64
	Misses                int64
	Inserts               int64
	Evictions             int64
	EvictionsUnreferenced int64
}

// Cache is a set-associative cache. Use New to construct one; the zero value
// is not usable.
type Cache struct {
	// lines holds every line of every set contiguously: set s occupies
	// lines[s*assoc : (s+1)*assoc]. The array is allocated once in New and
	// never resized, so *Line pointers handed to callers stay valid until
	// the line is evicted.
	lines []Line
	// keys mirrors lines' Key fields for the tag scan: comparing 8-byte
	// keys touches an eighth of the memory a scan over whole Lines would.
	// A slot's key may be stale after an invalidation, so a key match is
	// confirmed against the Line before it counts.
	keys    []uint64
	assoc   int
	numSets int
	setMask uint64
	clock   uint64
	repl    Replacement
	stats   Stats
	// fill counts valid lines per set; steady-state inserts skip the
	// free-way scan entirely once a set is full.
	fill []int32
	// idx accelerates key lookup for high-associativity sets, where a
	// linear way scan (fine in hardware, O(assoc) here) dominates
	// simulation time. nil for low associativities, where the scan's
	// cache-friendly compare loop beats a hashed map access.
	idx map[uint64]int32
	// prev/next/heads/tails form an intrusive LRU list per set (most
	// recent at head, least recent at tail), maintained only alongside
	// idx: victim selection in an indexed set is O(1) instead of an
	// O(assoc) minimum-stamp scan per eviction.
	prev, next   []int32
	heads, tails []int32
}

// indexedAssocMin is the associativity at which Lookup/Probe switch from a
// linear way scan to the map index. Below it the scan's cache-friendly
// compare loop beats a hashed map access.
const indexedAssocMin = 32

// FullyAssociative requests a single set spanning all entries.
const FullyAssociative = 0

// New returns a cache with the given total entry count and associativity.
// assoc == FullyAssociative (0) makes the cache fully associative; assoc == 1
// is direct-mapped. entries must be a positive power of two and divisible by
// assoc.
func New(entries, assoc int, repl Replacement) (*Cache, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("cache entries must be a positive power of two, got %d", entries)
	}
	if assoc == FullyAssociative {
		assoc = entries
	}
	if assoc < 0 || assoc > entries || entries%assoc != 0 {
		return nil, fmt.Errorf("associativity %d incompatible with %d entries", assoc, entries)
	}
	if repl != ReplLRU && repl != ReplCheckedLRU {
		return nil, fmt.Errorf("unknown replacement policy %d", repl)
	}
	numSets := entries / assoc
	c := &Cache{
		lines:   make([]Line, entries),
		keys:    make([]uint64, entries),
		assoc:   assoc,
		numSets: numSets,
		setMask: uint64(numSets - 1),
		repl:    repl,
		fill:    make([]int32, numSets),
	}
	if assoc >= indexedAssocMin {
		c.idx = make(map[uint64]int32, entries)
		c.prev = make([]int32, entries)
		c.next = make([]int32, entries)
		c.heads = make([]int32, numSets)
		c.tails = make([]int32, numSets)
		for i := range c.heads {
			c.heads[i], c.tails[i] = -1, -1
		}
	}
	return c, nil
}

// MustNew is New but panics on configuration error; for tests and tables of
// known-good configurations.
func MustNew(entries, assoc int, repl Replacement) *Cache {
	c, err := New(entries, assoc, repl)
	if err != nil {
		panic(err)
	}
	return c
}

// Entries returns the total number of lines.
func (c *Cache) Entries() int { return c.assoc * c.numSets }

// Assoc returns the associativity (ways per set).
func (c *Cache) Assoc() int { return c.assoc }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setIndex maps a key to its set. Keys are trace start PCs (instruction
// indexes), so low bits index directly as in a hardware PC-indexed structure.
func (c *Cache) setIndex(key uint64) uint64 { return key & c.setMask }

// ---- intrusive LRU list (indexed sets only) ----

// unlink removes line i from its set's LRU list.
func (c *Cache) unlink(i int32, set int) {
	p, n := c.prev[i], c.next[i]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.heads[set] = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tails[set] = p
	}
}

// pushFront makes line i the most recently used of its set.
func (c *Cache) pushFront(i int32, set int) {
	h := c.heads[set]
	c.prev[i], c.next[i] = -1, h
	if h >= 0 {
		c.prev[h] = i
	} else {
		c.tails[set] = i
	}
	c.heads[set] = i
}

// touch moves an already-listed line to the front of its set's LRU list.
func (c *Cache) touch(i int32, set int) {
	if c.heads[set] == i {
		return
	}
	c.unlink(i, set)
	c.pushFront(i, set)
}

// rebuildAux reconstructs keys, fill and — for indexed caches — the map
// index and LRU lists from the line array. Used by the (cold) restore paths;
// LRU stamps are the durable representation of recency, and the lists are
// re-derived from them.
func (c *Cache) rebuildAux() {
	for i := range c.fill {
		c.fill[i] = 0
	}
	for i := range c.lines {
		if c.lines[i].Valid {
			c.keys[i] = c.lines[i].Key
			c.fill[i/c.assoc]++
		} else {
			c.keys[i] = 0
		}
	}
	if c.idx == nil {
		return
	}
	clear(c.idx)
	for i := range c.heads {
		c.heads[i], c.tails[i] = -1, -1
	}
	valid := make([]int32, 0, len(c.lines))
	for i := range c.lines {
		if c.lines[i].Valid {
			c.idx[c.lines[i].Key] = int32(i)
			valid = append(valid, int32(i))
		}
	}
	// Oldest first, so successive pushFront calls leave the most recently
	// used line at the head — the order victim selection depends on.
	sort.Slice(valid, func(a, b int) bool { return c.lines[valid[a]].lru < c.lines[valid[b]].lru })
	for _, i := range valid {
		c.pushFront(i, int(i)/c.assoc)
	}
}

// Lookup finds key, updating LRU state and the Referenced flag on a hit.
// The returned pointer stays valid until the line is evicted; callers may
// update Value/Checked/Parity/Aux through it.
func (c *Cache) Lookup(key uint64) (*Line, bool) {
	if i := c.find(key); i >= 0 {
		c.clock++
		ln := &c.lines[i]
		ln.lru = c.clock
		ln.Referenced = true
		c.stats.Hits++
		if c.idx != nil {
			c.touch(i, int(i)/c.assoc)
		}
		return ln, true
	}
	c.stats.Misses++
	return nil, false
}

// Probe finds key without updating LRU, Referenced, or statistics.
func (c *Cache) Probe(key uint64) (*Line, bool) {
	if i := c.find(key); i >= 0 {
		return &c.lines[i], true
	}
	return nil, false
}

// find returns the index of the valid line holding key, or -1.
func (c *Cache) find(key uint64) int32 {
	if c.idx != nil {
		if i, ok := c.idx[key]; ok {
			return i
		}
		return -1
	}
	base := int(c.setIndex(key)) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		// The key slot can be stale after an invalidation, so confirm
		// against the line before counting the match.
		if c.keys[i] == key && c.lines[i].Valid && c.lines[i].Key == key {
			return int32(i)
		}
	}
	return -1
}

// Insert installs (key, value), evicting a victim if the set is full. It
// returns the evicted line (Valid == true) if an eviction occurred. If key is
// already present its line is overwritten in place (no eviction).
func (c *Cache) Insert(key, value uint64) (evicted Line, wasEvicted bool) {
	_, evicted, wasEvicted = c.InsertGet(key, value)
	return evicted, wasEvicted
}

// InsertGet is Insert returning the installed line as well, so callers that
// decorate fresh lines (Aux, Stamp, Parity, Checked) do not pay a second
// lookup — the miss path of the coverage sweep calls this once per miss
// instead of Insert plus Probe.
func (c *Cache) InsertGet(key, value uint64) (ln *Line, evicted Line, wasEvicted bool) {
	c.stats.Inserts++
	c.clock++
	if i := c.find(key); i >= 0 {
		ln = &c.lines[i]
		ln.Value = value
		ln.lru = c.clock
		if c.idx != nil {
			c.touch(i, int(i)/c.assoc)
		}
		return ln, Line{}, false
	}

	si := int(c.setIndex(key))
	base := si * c.assoc
	victim := -1
	if int(c.fill[si]) < c.assoc {
		for i := base; i < base+c.assoc; i++ {
			if !c.lines[i].Valid {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = c.pickVictim(si)
		ev := &c.lines[victim]
		evicted = *ev
		wasEvicted = true
		c.stats.Evictions++
		if !evicted.Referenced {
			c.stats.EvictionsUnreferenced++
		}
		if c.idx != nil {
			delete(c.idx, evicted.Key)
			c.unlink(int32(victim), si)
		}
	} else {
		c.fill[si]++
	}
	c.lines[victim] = Line{Key: key, Value: value, Valid: true, lru: c.clock}
	c.keys[victim] = key
	if c.idx != nil {
		c.idx[key] = int32(victim)
		c.pushFront(int32(victim), si)
	}
	return &c.lines[victim], evicted, wasEvicted
}

// pickVictim chooses a victim index within the (full) set si per the policy.
func (c *Cache) pickVictim(si int) int {
	if c.idx != nil {
		// The LRU list makes victim selection O(1): the tail is the
		// least recently used line. CheckedLRU walks from the tail toward
		// recency for the oldest checked line — the same line a full
		// minimum-stamp scan over checked lines would pick.
		if c.repl == ReplCheckedLRU {
			for i := c.tails[si]; i >= 0; i = c.prev[i] {
				if c.lines[i].Checked {
					return int(i)
				}
			}
			// No checked line in the set: the optimization breaks down
			// here (as the paper notes) and we fall back to plain LRU.
		}
		return int(c.tails[si])
	}
	base := si * c.assoc
	switch c.repl {
	case ReplCheckedLRU:
		best := -1
		for i := base; i < base+c.assoc; i++ {
			if !c.lines[i].Checked {
				continue
			}
			if best < 0 || c.lines[i].lru < c.lines[best].lru {
				best = i
			}
		}
		if best >= 0 {
			return best
		}
		fallthrough
	default:
		best := base
		for i := base + 1; i < base+c.assoc; i++ {
			if c.lines[i].lru < c.lines[best].lru {
				best = i
			}
		}
		return best
	}
}

// Clone returns a deep copy of the cache: contents, LRU ordering, and
// statistics. The clone shares nothing with the original, so snapshot layers
// can retain it while the original keeps running.
func (c *Cache) Clone() *Cache {
	n := MustNew(c.Entries(), c.assoc, c.repl)
	if err := n.CopyFrom(c); err != nil {
		panic(err) // unreachable: geometry matches by construction
	}
	return n
}

// CopyFrom overwrites the cache's entire state (contents, LRU ordering,
// statistics) with a deep copy of src, preserving c's identity so existing
// references stay valid. The two caches must have identical geometry and
// replacement policy. src is only read, so one source may be restored into
// any number of caches concurrently.
func (c *Cache) CopyFrom(src *Cache) error {
	if c.assoc != src.assoc || c.numSets != src.numSets || c.repl != src.repl {
		return fmt.Errorf("cache: cannot copy %d-set/%d-way/repl-%d state into %d-set/%d-way/repl-%d cache",
			src.numSets, src.assoc, src.repl, c.numSets, c.assoc, c.repl)
	}
	copy(c.lines, src.lines)
	c.clock = src.clock
	c.stats = src.stats
	c.rebuildAux()
	return nil
}

// State is an immutable, flat capture of a cache's complete state: every line
// (valid or not, preserving LRU ordering) in one contiguous array, plus the
// scalar counters. Capturing costs a single allocation — unlike Clone, no
// map index or LRU list is built for a copy that will never be looked up. A
// State is never written through, so one state may be restored into many
// caches concurrently.
type State struct {
	lines   []Line
	assoc   int
	numSets int
	repl    Replacement
	clock   uint64
	stats   Stats
}

// CaptureState snapshots the cache's state into a single flat allocation.
func (c *Cache) CaptureState() *State {
	s := &State{
		lines:   make([]Line, len(c.lines)),
		assoc:   c.assoc,
		numSets: c.numSets,
		repl:    c.repl,
		clock:   c.clock,
		stats:   c.stats,
	}
	copy(s.lines, c.lines)
	return s
}

// RestoreState overwrites the cache's entire state with s, preserving c's
// identity so existing references stay valid. The geometry and replacement
// policy must match the cache the state was captured from.
func (c *Cache) RestoreState(s *State) error {
	if c.assoc != s.assoc || c.numSets != s.numSets || c.repl != s.repl {
		return fmt.Errorf("cache: cannot restore %d-set/%d-way/repl-%d state into %d-set/%d-way/repl-%d cache",
			s.numSets, s.assoc, s.repl, c.numSets, c.assoc, c.repl)
	}
	copy(c.lines, s.lines)
	c.clock = s.clock
	c.stats = s.stats
	c.rebuildAux()
	return nil
}

// Invalidate removes key if present, returning whether it was resident.
// Invalidations do not count as evictions in the statistics (they model
// recovery actions such as discarding a parity-faulty ITR line, Section 2.4).
func (c *Cache) Invalidate(key uint64) bool {
	if i := c.find(key); i >= 0 {
		si := int(i) / c.assoc
		if c.idx != nil {
			delete(c.idx, key)
			c.unlink(i, si)
		}
		c.lines[i] = Line{}
		c.keys[i] = 0
		c.fill[si]--
		return true
	}
	return false
}

// Visit calls fn for every valid line. Mutating lines through the pointer is
// allowed — except Key and Valid, which the key scan and index depend on;
// inserting or invalidating during a visit is not.
func (c *Cache) Visit(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// CountUnchecked returns the number of valid lines whose Checked flag is
// clear. The coarse-grain checkpointing extension (Section 2.3) takes a
// checkpoint when this reaches zero.
func (c *Cache) CountUnchecked() int {
	n := 0
	c.Visit(func(ln *Line) {
		if !ln.Checked {
			n++
		}
	})
	return n
}

// ResidentUnreferenced returns the number of valid lines never referenced
// since insertion (still-pending missed instances at end of simulation).
func (c *Cache) ResidentUnreferenced() int {
	n := 0
	c.Visit(func(ln *Line) {
		if !ln.Referenced {
			n++
		}
	})
	return n
}

// Parity64 returns the even-parity bit of v (true when v has odd popcount).
func Parity64(v uint64) bool { return bits.OnesCount64(v)%2 == 1 }
