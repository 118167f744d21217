package workload

import (
	"sort"
	"sync"
	"sync/atomic"

	"itr/internal/program"
	"itr/internal/sig"
	"itr/internal/trace"
)

// DefaultBudget is the default dynamic-instruction budget per benchmark. The
// paper simulates 200M instructions after a 900M skip; coverage ratios for
// these loop-structured workloads converge far below that, and every tool
// accepts a flag to raise the budget to paper scale.
const DefaultBudget = 4_000_000

// EventsOf streams an already-built program, returning the trace events and
// the number of dynamic instructions executed. It is the uncached reference
// every memoized delivery (StreamEventSlices) must match bit for bit; the
// stream is what drives the ITR cache: coverage sweeps replay it against
// many cache configurations without re-running the program.
func EventsOf(prog *program.Program, budget int64) ([]trace.Event, int64) {
	events := make([]trace.Event, 0, budget/8)
	executed := trace.Stream(prog, budget, func(ev trace.Event) bool {
		events = append(events, ev)
		return true
	})
	return events, executed
}

// cacheEntry memoizes built programs and event streams per benchmark so that
// sweeps over 18 cache configurations pay for synthesis and functional
// execution once. Locking is per entry: the global map lock is held only for
// the cheap entry lookup, never during program synthesis or functional
// execution, so concurrent sweep workers generating *different* benchmarks
// proceed in parallel while workers asking for the *same* benchmark block
// until the first finishes and then reuse its result.
//
// The event cache is budget-monotonic: a stream generated at budget B serves
// every request b <= B as an exact prefix (see cutLocked), and a request
// beyond B regenerates at the larger budget. Requests therefore never thrash
// the cache by alternating between two budgets.
type cacheEntry struct {
	buildOnce sync.Once
	prog      *program.Program
	err       error

	mu     sync.Mutex // guards the fields below
	have   bool
	events []trace.Event
	cum    []int64 // cum[i] = dynamic instructions in events[:i+1]
	budget int64   // generation budget (events cover min(budget, program end))
}

var (
	cacheMu sync.Mutex
	cached  = make(map[string]*cacheEntry)

	// streamGens counts functional stream generations (cache misses); it
	// backs StreamInfo.Generated, sweep telemetry, and the cache-reuse tests.
	streamGens atomic.Int64
)

// entryOf returns (creating if needed) the cache entry for a benchmark name.
func entryOf(name string) *cacheEntry {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	e := cached[name]
	if e == nil {
		e = &cacheEntry{}
		cached[name] = e
	}
	return e
}

// CachedProgram returns a memoized build of p. Safe for concurrent use; the
// returned Program is immutable after construction and may be shared freely.
func CachedProgram(p Profile) (*program.Program, error) {
	e := entryOf(p.Name)
	e.buildOnce.Do(func() { e.prog, e.err = Build(p) })
	return e.prog, e.err
}

// executedLocked returns the dynamic instructions covered by the cached
// stream (0 when empty). Callers hold e.mu.
func (e *cacheEntry) executedLocked() int64 {
	if len(e.cum) == 0 {
		return 0
	}
	return e.cum[len(e.cum)-1]
}

// coversLocked reports whether the cached stream can serve a request at the
// given budget: either the cache was generated at that budget or beyond, or
// the program ended before exhausting the cached budget (so the stream is
// complete and no budget can extend it). Callers hold e.mu.
func (e *cacheEntry) coversLocked(budget int64) bool {
	if !e.have {
		return false
	}
	return budget <= e.budget || e.executedLocked() < e.budget
}

// generateLocked functionally executes prog for at most budget instructions,
// memoizing the event stream with its cumulative instruction counts. Callers
// hold e.mu.
func (e *cacheEntry) generateLocked(prog *program.Program, budget int64) {
	streamGens.Add(1)
	events := make([]trace.Event, 0, budget/8)
	cum := make([]int64, 0, budget/8)
	total := int64(0)
	trace.Stream(prog, budget, func(ev trace.Event) bool {
		events = append(events, ev)
		total += int64(ev.Len)
		cum = append(cum, total)
		return true
	})
	e.have = true
	e.events, e.cum, e.budget = events, cum, budget
}

// cutLocked locates the exact prefix of the cached stream that a fresh run
// at the given budget would produce: events[:k] whole events, plus — when the
// budget cuts through event k — a rebuilt partial tail covering its first
// tail.Len instructions. Callers hold e.mu and must have checked
// coversLocked.
func (e *cacheEntry) cutLocked(prog *program.Program, budget int64) (k int, tail trace.Event, hasTail bool) {
	k = sort.Search(len(e.cum), func(i int) bool { return e.cum[i] > budget })
	if k == len(e.events) {
		// The whole stream fits (budget at or past program end): a fresh run
		// would halt at the same point and emit the identical stream.
		return k, trace.Event{}, false
	}
	used := int64(0)
	if k > 0 {
		used = e.cum[k-1]
	}
	r := budget - used
	if r == 0 {
		// The budget lands exactly on an event boundary; event k never forms.
		return k, trace.Event{}, false
	}
	return k, partialPrefix(prog, e.events[k], int(r)), true
}

// partialPrefix rebuilds the partial event a budget-bound run emits when its
// limit cuts the given (longer) trace after r < ev.Len instructions: the
// trace former flushes the open trace with the signature of only the
// instructions that executed. Within a trace only the final instruction can
// branch, so instructions occupy consecutive PCs and the prefix signature is
// recomputable from the decode table without re-executing.
func partialPrefix(prog *program.Program, ev trace.Event, r int) trace.Event {
	tab := prog.DecodeTable()
	var acc sig.Accumulator
	for i := 0; i < r; i++ {
		acc.Add(tab.Word(ev.StartPC + uint64(i)))
	}
	return trace.Event{StartPC: ev.StartPC, Len: acc.Len(), Sig: acc.Value(), Partial: true}
}

// StreamEventSlices is the one memoized entry point to benchmark p's
// trace-event stream at the given budget: every replay (characterization,
// coverage sweeps, energy) reads the stream through it. It delivers the event
// sequence a fresh EventsOf run at that budget produces, bit for bit, as at
// most two read-only slices: the cached whole-event prefix in place (zero
// copies, zero per-event calls) plus the rebuilt partial tail when the budget
// cuts an event in half. A stream cached at a larger budget serves the
// request as a prefix; a request beyond the cached budget regenerates at the
// larger budget, which then serves both. On a cache miss the stream is
// generated (and memoized) first, then delivered from the cache. fn may
// retain the slices but must not mutate them: they share the cached backing
// array, which a later regeneration replaces rather than overwrites.
//
// fn runs with the benchmark's cache entry locked and must not call back
// into this package for the same benchmark.
func StreamEventSlices(p Profile, budget int64, fn func([]trace.Event)) (StreamInfo, error) {
	prog, err := CachedProgram(p)
	if err != nil {
		return StreamInfo{}, err
	}
	e := entryOf(p.Name)
	e.mu.Lock()
	defer e.mu.Unlock()
	var info StreamInfo
	if !e.coversLocked(budget) {
		info.Generated = true
		e.generateLocked(prog, budget)
	}
	k, tail, hasTail := e.cutLocked(prog, budget)
	if k > 0 {
		fn(e.events[:k:k])
		info.Events = int64(k)
		info.Insts = e.cum[k-1]
	}
	if hasTail {
		fn([]trace.Event{tail})
		info.Events++
		info.Insts += int64(tail.Len)
	}
	return info, nil
}

// StreamInfo summarizes one StreamEventSlices call for sweep telemetry.
type StreamInfo struct {
	// Events and Insts count the trace events delivered to fn and the
	// dynamic instructions they cover.
	Events int64
	Insts  int64
	// Generated reports whether the stream was functionally generated on
	// this call (a cache miss) rather than replayed from the memo cache.
	Generated bool
}
