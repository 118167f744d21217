package core

import (
	"math/rand"
	"reflect"
	"testing"

	"itr/internal/cache"
	"itr/internal/trace"
)

// TestWarmupLatchBoundary pins the shared warm-up attribution rule at the
// latch level: whole events fitting in the budget are admitted; the first
// straddler closes the latch for good.
func TestWarmupLatchBoundary(t *testing.T) {
	cases := []struct {
		name   string
		budget int64
		lens   []int
		want   []bool
	}{
		{"zero budget admits nothing", 0, []int{1, 5}, []bool{false, false}},
		{"negative budget admits nothing", -3, []int{1}, []bool{false}},
		{"exact fit then closed", 10, []int{4, 6, 1}, []bool{true, true, false}},
		{"straddler latches", 10, []int{8, 5, 1}, []bool{true, false, false}},
		{"short after straddler stays measured", 15, []int{10, 10, 3}, []bool{true, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			latch := NewWarmupLatch(tc.budget)
			for i, n := range tc.lens {
				if got := latch.Admit(n); got != tc.want[i] {
					t.Errorf("event %d (len %d): Admit = %v, want %v", i, n, got, tc.want[i])
				}
			}
		})
	}
}

// randomStream synthesizes a trace-event stream with heavy PC reuse (so hits,
// installs and evictions all occur) and a consistent signature per start PC.
func randomStream(rng *rand.Rand, n, pcs int) []trace.Event {
	sigs := make(map[uint64]uint64)
	events := make([]trace.Event, n)
	for i := range events {
		pc := uint64(rng.Intn(pcs)) * 32
		sig, ok := sigs[pc]
		if !ok {
			sig = rng.Uint64()
			sigs[pc] = sig
		}
		events[i] = trace.Event{StartPC: pc, Len: 1 + rng.Intn(16), Sig: sig}
	}
	return events
}

// feedSplit feeds events to the bank through FeedBlock in pieces cut at
// random split points: empty pieces, pieces shorter than a replay block and
// pieces spanning several blocks all occur.
func feedSplit(rng *rand.Rand, bank *SimBank, events []trace.Event) {
	for len(events) > 0 {
		n := rng.Intn(3 * bankBlockEvents)
		if n > len(events) {
			n = len(events)
		}
		bank.FeedBlock(events[:n])
		events = events[n:]
	}
}

// TestSimBankMatchesSingleSims is the bank's central property: feeding one
// event stream through a SimBank produces, for every member, a Result
// identical to a standalone CoverageSim replaying the same stream through its
// own WarmupLatch — across random streams longer than several replay blocks,
// random FeedBlock split points, config subsets and warm-up budgets whose
// boundary falls inside a block.
func TestSimBankMatchesSingleSims(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	space := DesignSpace()
	for round := 0; round < 8; round++ {
		events := randomStream(rng, 2*bankBlockEvents+rng.Intn(3*bankBlockEvents), 50+rng.Intn(1500))
		configs := make([]Config, 2+rng.Intn(len(space)-1))
		for i := range configs {
			configs[i] = space[rng.Intn(len(space))]
			if rng.Intn(3) == 0 {
				configs[i].MissFallback = true
			}
		}
		// Even rounds measure everything; odd rounds put the warm-up
		// boundary strictly inside the stream, at a random instruction.
		warmup := int64(0)
		if round%2 == 1 {
			total := int64(0)
			for _, ev := range events {
				total += int64(ev.Len)
			}
			warmup = 1 + rng.Int63n(total-1)
		}

		bank, err := NewSimBank(configs, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if round < 2 {
			// One call: the latch closes inside one of FeedBlock's own
			// replay windows.
			bank.FeedBlock(events)
		} else {
			feedSplit(rng, bank, events)
		}

		for ci, cfg := range configs {
			sim, err := NewCoverageSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			latch := NewWarmupLatch(warmup)
			for _, ev := range events {
				if latch.Admit(ev.Len) {
					sim.Warm(ev)
				} else {
					sim.Access(ev)
				}
			}
			if got, want := bank.Result(ci), sim.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d, config %s (warmup %d): bank result diverges from single sim\n bank: %+v\n sim:  %+v",
					round, cfg, warmup, got, want)
			}
		}
	}
}

// TestSimBankWarmupBoundaryMidBlock pins the case a random draw may miss: the
// warm-up latch closing in the middle of a replay window that is neither the
// first window nor the first FeedBlock call, with a straddling event at the
// boundary and short events after it that would still fit.
func TestSimBankWarmupBoundaryMidBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	events := randomStream(rng, 3*bankBlockEvents, 400)
	// Boundary event: index bankBlockEvents + bankBlockEvents/2, made a
	// straddler by ending warm-up one instruction into it; the events after
	// it are short enough that a latch-free rule would warm them.
	k := bankBlockEvents + bankBlockEvents/2
	events[k].Len = 8
	for i := k + 1; i < k+4; i++ {
		events[i].Len = 1
	}
	warmup := int64(1)
	for _, ev := range events[:k] {
		warmup += int64(ev.Len)
	}
	configs := []Config{DefaultConfig(), {Entries: 256, Assoc: 1}, {Entries: 512, Assoc: 4, Replacement: cache.ReplCheckedLRU}}

	bank, err := NewSimBank(configs, warmup)
	if err != nil {
		t.Fatal(err)
	}
	bank.FeedBlock(events[:100])
	bank.FeedBlock(events[100 : k+10])
	bank.FeedBlock(events[k+10:])

	for ci, cfg := range configs {
		sim, err := NewCoverageSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			if i < k {
				sim.Warm(ev)
			} else {
				sim.Access(ev)
			}
		}
		want := sim.Result()
		if want.TraceEvents != int64(len(events)-k) {
			t.Fatalf("oracle measured %d events, want %d", want.TraceEvents, len(events)-k)
		}
		if got := bank.Result(ci); !reflect.DeepEqual(got, want) {
			t.Errorf("config %s: bank result diverges from the boundary oracle\n bank: %+v\n sim:  %+v", cfg, got, want)
		}
	}
}

// TestNewSimBankConfigError verifies an invalid member configuration fails
// construction with the config identified in the error.
func TestNewSimBankConfigError(t *testing.T) {
	configs := []Config{DefaultConfig(), {Entries: 300, Assoc: 2}}
	if _, err := NewSimBank(configs, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}
