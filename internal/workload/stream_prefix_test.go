package workload

import (
	"reflect"
	"testing"

	"itr/internal/trace"
)

// prefixProfile returns a synthetic benchmark with its own (unique) cache
// entry, so generation-count assertions cannot race with other tests sharing
// the global memoization cache.
func prefixProfile(name string) Profile {
	return Profile{
		Name:         name,
		StaticTraces: 140,
		Components:   []Component{{40, 50}},
		Seed:         7,
	}
}

// freshEvents runs an uncached functional execution — the oracle every cached
// serving mode must match bit for bit.
func freshEvents(t *testing.T, p Profile, budget int64) []trace.Event {
	t.Helper()
	prog, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := EventsOf(prog, budget)
	return events
}

// cachedEvents materializes the memoized stream StreamEventSlices delivers for
// p at the given budget, with the call's StreamInfo. It returns its error
// instead of failing the test so concurrent callers can use it.
func cachedEvents(p Profile, budget int64) ([]trace.Event, StreamInfo, error) {
	var out []trace.Event
	info, err := StreamEventSlices(p, budget, func(s []trace.Event) { out = append(out, s...) })
	return out, info, err
}

// mustCachedEvents is cachedEvents failing the test on error.
func mustCachedEvents(t *testing.T, p Profile, budget int64) ([]trace.Event, StreamInfo) {
	t.Helper()
	events, info, err := cachedEvents(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	return events, info
}

// gens runs fn and returns how many functional stream generations it caused.
func gens(fn func()) int64 {
	before := streamGens.Load()
	fn()
	return streamGens.Load() - before
}

// TestCachedEventsServesPrefix: a stream cached at a large budget serves every
// smaller budget as an exact prefix — identical to a fresh run at that budget,
// including a cut landing exactly on an event boundary — without regenerating.
func TestCachedEventsServesPrefix(t *testing.T) {
	p := prefixProfile("prefix-serve")
	const big = 60_000
	full, _ := mustCachedEvents(t, p, big)
	if len(full) == 0 {
		t.Fatal("empty stream")
	}

	// An event-boundary budget and an arbitrary interior budget.
	boundary := int64(0)
	for _, ev := range full[:len(full)/2] {
		boundary += int64(ev.Len)
	}
	for _, budget := range []int64{boundary, 37_501, 1, big} {
		var got []trace.Event
		if n := gens(func() { got, _ = mustCachedEvents(t, p, budget) }); n != 0 {
			t.Errorf("budget %d: caused %d regenerations, want 0", budget, n)
		}
		want := freshEvents(t, p, budget)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: cached prefix (%d events) differs from fresh run (%d events)",
				budget, len(got), len(want))
		}
	}
}

// TestCachedEventsStraddlePartialTail pins the hard case: a budget cutting
// through the middle of a cached event must yield a rebuilt Partial tail whose
// length and signature match what the trace former emits on a fresh
// budget-bound run.
func TestCachedEventsStraddlePartialTail(t *testing.T) {
	p := prefixProfile("prefix-straddle")
	full, _ := mustCachedEvents(t, p, 50_000)

	// Find an event of at least two instructions and cut it one short.
	cum := int64(0)
	cut := int64(-1)
	for _, ev := range full {
		if ev.Len >= 2 {
			cut = cum + int64(ev.Len) - 1
			break
		}
		cum += int64(ev.Len)
	}
	if cut < 0 {
		t.Fatal("no multi-instruction event found")
	}

	got, _ := mustCachedEvents(t, p, cut)
	want := freshEvents(t, p, cut)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cut %d: cached %d events, fresh %d events; tails %+v vs %+v",
			cut, len(got), len(want), got[len(got)-1], want[len(want)-1])
	}
	tail := got[len(got)-1]
	if !tail.Partial {
		t.Fatalf("tail not marked partial: %+v", tail)
	}
}

// TestCachedEventsBudgetSequence is the anti-thrash property: alternating
// larger -> smaller -> larger requests within the cached budget never
// regenerate; only a request beyond the cached budget does, after which the
// larger cache serves everything.
func TestCachedEventsBudgetSequence(t *testing.T) {
	p := prefixProfile("prefix-thrash")
	ask := func(budget int64, wantGens int64) {
		t.Helper()
		if n := gens(func() { mustCachedEvents(t, p, budget) }); n != wantGens {
			t.Errorf("budget %d: %d generations, want %d", budget, n, wantGens)
		}
	}
	ask(40_000, 1) // cold: generate
	ask(10_000, 0) // prefix
	ask(40_000, 0) // full cached stream
	ask(10_000, 0) // prefix again — no thrash
	ask(55_000, 1) // beyond cache: regenerate once at the larger budget
	ask(40_000, 0) // now a prefix of the larger cache
	ask(55_000, 0)
}

// TestStreamEventSlicesMatchesFresh: the memoized entry point delivers the
// identical event sequence on a cache miss (generate, then deliver) and on a
// hit (replay), with accurate StreamInfo accounting, and serves a prefix
// request identically to a fresh run at that budget.
func TestStreamEventSlicesMatchesFresh(t *testing.T) {
	p := prefixProfile("prefix-stream")
	const budget = 30_000

	first, firstInfo := mustCachedEvents(t, p, budget)
	if !firstInfo.Generated {
		t.Error("first call should report a generation")
	}
	second, secondInfo := mustCachedEvents(t, p, budget)
	if secondInfo.Generated {
		t.Error("second call should replay from cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache miss and cache hit delivered different streams")
	}
	if !reflect.DeepEqual(first, freshEvents(t, p, budget)) {
		t.Fatal("streamed events differ from a fresh run")
	}

	for _, info := range []StreamInfo{firstInfo, secondInfo} {
		if info.Events != int64(len(first)) {
			t.Errorf("info.Events = %d, want %d", info.Events, len(first))
		}
		insts := int64(0)
		for _, ev := range first {
			insts += int64(ev.Len)
		}
		if info.Insts != insts {
			t.Errorf("info.Insts = %d, want %d", info.Insts, insts)
		}
	}

	// A prefix request replays the cut a fresh run at that budget produces.
	streamed, info := mustCachedEvents(t, p, 11_111)
	if info.Generated {
		t.Error("prefix request regenerated")
	}
	if !reflect.DeepEqual(streamed, freshEvents(t, p, 11_111)) {
		t.Fatal("prefix delivery differs from a fresh run")
	}
}
