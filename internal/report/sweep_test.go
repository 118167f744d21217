package report

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"itr/internal/core"
	"itr/internal/energy"
	"itr/internal/trace"
	"itr/internal/workload"
)

// coverageSweepPerCell is the sweep's reference oracle: event streams
// materialized per benchmark, then one full stream traversal per (benchmark,
// configuration) cell through a standalone core.CoverageSim. The single-pass
// CoverageSweepWarm must return identical cells from one traversal per
// benchmark (TestSweepSinglePassMatchesPerCell), and
// BenchmarkCoverageSweepSerial measures it as the regression baseline.
func (e *Engine) coverageSweepPerCell(profiles []workload.Profile, configs []core.Config, budget, warmupInsts int64) ([]CoverageCell, error) {
	streams := make([][]trace.Event, len(profiles))
	err := e.forEach(len(profiles), func(pi int) error {
		p := profiles[pi]
		return e.item(p.Name, func() error {
			events, err := cachedStream(p, p.ScaledBudget(budget)+warmupInsts)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			streams[pi] = events
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	cells := make([]CoverageCell, len(profiles)*len(configs))
	err = e.forEach(len(cells), func(i int) error {
		pi, ci := i/len(configs), i%len(configs)
		p, cfg := profiles[pi], configs[ci]
		return e.item(p.Name, func() error {
			sim, err := core.NewCoverageSim(cfg)
			if err != nil {
				return fmt.Errorf("%s %s: %w", p.Name, cfg, err)
			}
			replayWarm(sim, streams[pi], warmupInsts)
			cells[i] = CoverageCell{Benchmark: p.Name, Config: cfg, Result: sim.Result()}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// cachedStream materializes the memoized event stream of p at budget as one
// read-only slice. A whole-event prefix is the cache's own backing array
// (delivered with cap == len, so appending the partial tail copies).
func cachedStream(p workload.Profile, budget int64) ([]trace.Event, error) {
	var events []trace.Event
	_, err := workload.StreamEventSlices(p, budget, func(s []trace.Event) {
		if events == nil {
			events = s
			return
		}
		events = append(events, s...)
	})
	return events, err
}

// replayWarm drives one coverage simulator over a shared (read-only) event
// stream, delegating the warm-up boundary rule to the same core.WarmupLatch
// that governs SimBank fan-out — the two replay paths cannot diverge.
func replayWarm(sim *core.CoverageSim, events []trace.Event, warmupInsts int64) {
	latch := core.NewWarmupLatch(warmupInsts)
	for _, ev := range events {
		if latch.Admit(ev.Len) {
			sim.Warm(ev)
		} else {
			sim.Access(ev)
		}
	}
}

// TestSweepSinglePassMatchesPerCell is the sweep engine's bit-identity
// property: the single-pass bank path returns exactly the cells the per-cell
// reference path computes — same order, same values — over a randomized
// configuration grid and warm-up budgets.
func TestSweepSinglePassMatchesPerCell(t *testing.T) {
	profiles := small(t, "vpr", "wupwise")
	rng := rand.New(rand.NewSource(23))
	space := core.DesignSpace()
	for round := 0; round < 4; round++ {
		configs := make([]core.Config, 1+rng.Intn(len(space)))
		for i := range configs {
			configs[i] = space[rng.Intn(len(space))]
			if rng.Intn(4) == 0 {
				configs[i].MissFallback = true
			}
		}
		warmup := int64(rng.Intn(2)) * int64(rng.Intn(20_000))

		eng := &Engine{Workers: 2}
		single, err := eng.CoverageSweepWarm(profiles, configs, testBudget, warmup)
		if err != nil {
			t.Fatal(err)
		}
		perCell, err := eng.coverageSweepPerCell(profiles, configs, testBudget, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, perCell) {
			t.Fatalf("round %d (%d configs, warmup %d): single-pass cells diverge from per-cell reference",
				round, len(configs), warmup)
		}
	}
}

// TestSweepRenderingIdenticalAcrossPaths renders Figures 6/7-shaped tables
// from three sweeps — serial single-pass, full-width single-pass, and the
// per-cell reference — and requires byte-identical output.
func TestSweepRenderingIdenticalAcrossPaths(t *testing.T) {
	profiles := small(t, "bzip", "art")
	rng := rand.New(rand.NewSource(5))
	space := core.DesignSpace()
	configs := make([]core.Config, 8)
	for i := range configs {
		configs[i] = space[rng.Intn(len(space))]
	}

	render := func(cells []CoverageCell) string {
		SortCellsByBenchmark(cells)
		return CoverageTable(cells, "detection").String() + CoverageTable(cells, "recovery").String()
	}

	serial := &Engine{Workers: 1}
	wide := &Engine{Workers: 8}
	a, err := serial.CoverageSweepWarm(profiles, configs, testBudget, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.CoverageSweepWarm(profiles, configs, testBudget, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wide.coverageSweepPerCell(profiles, configs, testBudget, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, rc := render(a), render(b), render(c)
	if ra != rb {
		t.Errorf("serial vs full-width single-pass renderings differ:\n%s\nvs\n%s", ra, rb)
	}
	if ra != rc {
		t.Errorf("single-pass vs per-cell renderings differ:\n%s\nvs\n%s", ra, rc)
	}
}

// TestFigure9MatchesDirectSimulation verifies Figure 9's shared-sweep rework
// against the pre-rework computation: a private replay per benchmark with its
// own instruction count and scaling.
func TestFigure9MatchesDirectSimulation(t *testing.T) {
	profiles := small(t, "vpr", "swim")
	const scaleInsts = 200_000_000
	rows, err := (&Engine{}).Figure9(profiles, testBudget, scaleInsts)
	if err != nil {
		t.Fatal(err)
	}

	singleNJ, _ := energy.AccessEnergyNJ(energy.ITRCacheSinglePort)
	dualNJ, _ := energy.AccessEnergyNJ(energy.ITRCacheDualPort)
	iNJ, _ := energy.AccessEnergyNJ(energy.Power4ICache)
	for i, p := range profiles {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		events, executed := workload.EventsOf(prog, p.ScaledBudget(testBudget))
		sim, err := core.NewCoverageSim(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			sim.Access(ev)
		}
		res := sim.Result()
		scale := 1.0
		if executed > 0 {
			scale = float64(scaleInsts) / float64(executed)
		}
		want := Figure9Row{
			Benchmark:      p.Name,
			ITRSinglePort:  energy.EnergyMJ(int64(float64(res.Reads+res.Writes)*scale), singleNJ),
			ITRDualPort:    energy.EnergyMJ(int64(float64(res.Reads+res.Writes)*scale), dualNJ),
			ICacheRedFetch: energy.EnergyMJ(int64(float64(energy.RedundantFetchAccesses(executed))*scale), iNJ),
		}
		if rows[i] != want {
			t.Errorf("%s: Figure9 row %+v diverges from direct simulation %+v", p.Name, rows[i], want)
		}
	}
}

// TestSweepProbeTelemetry verifies the probe accounting: streams generate at
// most once per (benchmark, budget), every traversal counts its events, and
// each (benchmark, config) cell is recorded.
func TestSweepProbeTelemetry(t *testing.T) {
	profiles := small(t, "gap", "mgrid")
	configs := core.DesignSpace()[:4]
	probe := &Probe{}
	eng := &Engine{Workers: 2, Probe: probe}
	cells, err := eng.CoverageSweepWarm(profiles, configs, testBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := probe.CellsCompleted.Load(), int64(len(cells)); got != want {
		t.Errorf("cells completed %d, want %d", got, want)
	}
	if probe.EventsReplayed.Load() <= 0 {
		t.Error("no events accounted")
	}
	gens := probe.StreamsGenerated.Load()
	if gens > int64(len(profiles)) {
		t.Errorf("%d generations for %d benchmarks", gens, len(profiles))
	}

	// A second sweep at the same budget replays from cache: cells and events
	// accrue, generations do not.
	if _, err := eng.CoverageSweepWarm(profiles, configs, testBudget, 0); err != nil {
		t.Fatal(err)
	}
	if got := probe.StreamsGenerated.Load(); got != gens {
		t.Errorf("repeat sweep generated %d new streams", got-gens)
	}
	if got, want := probe.CellsCompleted.Load(), int64(2*len(cells)); got != want {
		t.Errorf("cells completed %d after second sweep, want %d", got, want)
	}
}

// TestCharacterizationMatchesDirect pins Characterization's read of the
// memoized stream: on a cache miss, on a hit, and on a hit served as a
// shorter prefix, it equals a characterizer driven straight from
// trace.Characterize on a freshly built program, and the probe sees a
// stream generation on the miss only.
func TestCharacterizationMatchesDirect(t *testing.T) {
	p := small(t, "swim")[0]
	// A unique name gives the profile its own memo-cache entry, so the
	// first call below is a miss whatever other tests have run.
	p.Name = "swim-characterization-miss"
	prog, err := workload.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{}
	eng := &Engine{Probe: probe}
	for _, tc := range []struct {
		name      string
		budget    int64
		generated bool
	}{
		{"miss", testBudget, true},
		{"hit", testBudget, false},
		{"prefix hit", testBudget/2 + 3, false},
	} {
		before := probe.StreamsGenerated.Load()
		got, err := eng.Characterization(p, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		if gen := probe.StreamsGenerated.Load() > before; gen != tc.generated {
			t.Errorf("%s: stream generated = %v, want %v", tc.name, gen, tc.generated)
		}
		if want := trace.Characterize(prog, p.ScaledBudget(tc.budget)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: characterization at budget %d differs from trace.Characterize", tc.name, tc.budget)
		}
	}
}

// sweepBenchBudget is the per-benchmark instruction budget of the per-cell
// sweep benchmarks; it equals the root package's figure-benchmark budget, so
// they stay comparable with BenchmarkCoverageSweepSinglePass there.
const sweepBenchBudget = 1_500_000

// sweepEngineBench runs the full 16-benchmark x 18-configuration design-space
// sweep at the given worker-pool width through the per-cell reference path
// (one stream traversal per cell) — the baseline the single-pass engine is
// measured against.
func sweepEngineBench(b *testing.B, workers int) {
	eng := &Engine{Workers: workers}
	// One untimed sweep first: event streams are memoized per benchmark, so
	// this pins the measurement to the replay engine rather than charging
	// whichever variant runs first for one-time event generation.
	if _, err := eng.coverageSweepPerCell(workload.Suite(), core.DesignSpace(), sweepBenchBudget, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := eng.coverageSweepPerCell(workload.Suite(), core.DesignSpace(), sweepBenchBudget, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != len(workload.Suite())*len(core.DesignSpace()) {
			b.Fatalf("sweep returned %d cells", len(cells))
		}
	}
}

// BenchmarkCoverageSweepSerial is the per-cell design-space sweep pinned to
// one worker — the regression baseline for the single-core replay hot path
// and the reference BenchmarkCoverageSweepSinglePass is compared against.
func BenchmarkCoverageSweepSerial(b *testing.B) { sweepEngineBench(b, 1) }

// BenchmarkCoverageSweepParallel is the same per-cell sweep on the default
// pool (GOMAXPROCS workers); on a multi-core host the speedup over Serial is
// the parallel engine's contribution, and results are bit-identical either
// way.
func BenchmarkCoverageSweepParallel(b *testing.B) { sweepEngineBench(b, 0) }
