package fault

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/obs"
	"itr/internal/program"
	"itr/internal/stats"
)

// CampaignConfig parameterizes a Figure 8 campaign on one benchmark.
type CampaignConfig struct {
	// Faults is the number of injections (the paper: 1000 per benchmark).
	Faults int
	// Seed makes injection sampling reproducible.
	Seed uint64
	// Experiment configures each injection run.
	Experiment Config
	// Workers bounds parallel experiments (default: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives live campaign telemetry. One
	// Progress may be shared across concurrent campaigns.
	Progress *Progress
	// LatencyCycles and LatencyInsts, when non-nil, receive each detected
	// injection's machine time from its decode event to the first
	// detection, in cycles and committed instructions. Share one pair per
	// backend to accumulate a distribution across campaigns.
	LatencyCycles *obs.Hist
	LatencyInsts  *obs.Hist
	// Tracer, when non-nil, records the pilot's snapshot captures and each
	// worker's injection events, interleaved with its pipeline events.
	Tracer *obs.Tracer
}

// Progress accumulates live campaign telemetry across workers and
// benchmarks; its counters are sharded per worker, so a ticker can read them
// mid-campaign without contention. Pair it with a pipeline.Probe on
// Experiment.Pipeline.Probe for cycle/decode/restore counts.
type Progress struct {
	// Injections counts completed injection experiments.
	Injections obs.Counter
	// CyclesSimulated, VerifyCyclesSimulated and CyclesSaved mirror the
	// campaign Budget live (CyclesSaved is zero under Config.Exact).
	CyclesSimulated       obs.Counter
	VerifyCyclesSimulated obs.Counter
	CyclesSaved           obs.Counter
}

// DefaultCampaignConfig returns a scaled-down campaign (raise Faults to 1000
// and Experiment.WindowCycles to 1M for paper fidelity).
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Faults:     100,
		Seed:       0x17b,
		Experiment: DefaultConfig(),
	}
}

// CampaignResult aggregates one benchmark's injections.
type CampaignResult struct {
	Benchmark string
	Total     int
	Counts    map[Category]int
	// ByField tallies injections by the Table 2 field hit.
	ByField map[string]int
	// RecoveryConfirmed counts recoverable detections whose verify run
	// actually recovered (retry matched, no machine check, no SDC).
	RecoveryConfirmed int
	RecoveryAttempted int
	// CheckpointRecovered counts detection-only faults (the ITR+SDC+D
	// class) that the checkpointing extension converted into rollbacks.
	CheckpointRecovered int
	// Snapshots is the number of pilot snapshots some injection resumes
	// from; SnapshotPages the page references they hold, counting a page
	// shared copy-on-write once per snapshot; SnapshotOwnedPages the
	// distinct pages, the series' resident footprint; SnapshotStateBytes the
	// machine state the series holds beside those pages (cache lines,
	// predictor tables, ROB columns). All are zero on the cold path.
	Snapshots          int
	SnapshotPages      int
	SnapshotOwnedPages int
	SnapshotStateBytes int64
	// GoldenLogBytes is the resident size of the fault-free commit log the
	// injections compared against.
	GoldenLogBytes int64
	// Budget accounts the decided-outcome engine's work: cycles simulated
	// versus window cycles skipped, per outcome class.
	Budget  Budget
	Details []Detail
}

// Pct returns the percentage of injections in category c.
func (r CampaignResult) Pct(c Category) float64 { return pct(r.Counts[c], r.Total) }

// DetectedPct returns the percentage of injections detected through the ITR
// cache (the paper reports 95.4% on average).
func (r CampaignResult) DetectedPct() float64 {
	return r.Pct(ITRMask) + r.Pct(ITRSDCR) + r.Pct(ITRSDCD) + r.Pct(ITRWdogR)
}

func (r CampaignResult) String() string {
	return fmt.Sprintf("%s: %d faults, %.1f%% ITR-detected", r.Benchmark, r.Total, r.DetectedPct())
}

// RunCampaign injects cfg.Faults random decode-signal faults into prog and
// classifies each, sampling injection points over the decode events of the
// fault-free pilot covering the observation window.
func RunCampaign(name string, prog *program.Program, cfg CampaignConfig) (CampaignResult, error) {
	res := CampaignResult{
		Benchmark: name,
		Counts:    make(map[Category]int),
		ByField:   make(map[string]int),
		Budget:    Budget{ByClass: make(map[Category]ClassBudget)},
	}
	if cfg.Faults <= 0 {
		return res, fmt.Errorf("campaign: non-positive fault count %d", cfg.Faults)
	}

	// The pilot runs the observe machine's configuration, so its snapshots
	// restore into every observe and verify leg.
	e := newEngine(prog, cfg.Experiment, cfg.Seed)
	e.tracer = cfg.Tracer
	if cfg.Workers > 0 {
		e.workers = cfg.Workers
	}
	e.oracle = NewSigOracle(prog)
	src, pres, err := e.pilot(cfg.Experiment.pipelineConfig(core.ModeObserve), cfg.Experiment.WindowCycles)
	if err != nil {
		return res, fmt.Errorf("campaign %w", err)
	}
	if pres.DecodeEvents < 100 {
		return res, fmt.Errorf("campaign: window too small (%d decode events)", pres.DecodeEvents)
	}

	// Sample injections: bit uniform over the 64 Table 2 signal bits.
	rng := stats.NewRNG(cfg.Seed)
	injections := make([]decodeBit, cfg.Faults)
	for i := range injections {
		injections[i].DecodeIndex = decodeSample(rng, pres.DecodeEvents)
		injections[i].Bit = rng.Intn(isa.SignalBits)
	}
	prune(src, injections)
	e.decodeSources(src.snaps)
	res.Snapshots = len(src.snaps)
	distinct := make(map[uint64]struct{})
	for _, s := range src.snaps {
		res.SnapshotPages += s.MemPages()
		s.VisitMemPages(func(id uint64) { distinct[id] = struct{}{} })
	}
	res.SnapshotOwnedPages = len(distinct)
	res.SnapshotStateBytes = snapshotStateBytes(src.snaps)

	details := make([]Detail, cfg.Faults)
	budgets := make([]runBudget, cfg.Faults)
	err = pool(e, injections, func(a *arena, i int) error {
		inj := Injection(injections[i])
		a.ring.Emit(obs.EvInjectStart, inj.DecodeIndex, int64(inj.Bit))
		d, err := e.runOne(a, inj, &budgets[i])
		details[i] = d
		detected := int64(0)
		if err == nil && d.Detected {
			detected = 1
		}
		if err == nil && d.LatencyCycles >= 0 && cfg.LatencyCycles != nil {
			cfg.LatencyCycles.Observe(d.LatencyCycles)
		}
		if err == nil && d.LatencyInsts >= 0 && cfg.LatencyInsts != nil {
			cfg.LatencyInsts.Observe(d.LatencyInsts)
		}
		a.ring.Emit(obs.EvInjectClassify, inj.DecodeIndex, detected)
		if cfg.Progress != nil {
			cfg.Progress.Injections.AddAt(a.shard, 1)
			cfg.Progress.CyclesSimulated.AddAt(a.shard, budgets[i].simulated)
			cfg.Progress.VerifyCyclesSimulated.AddAt(a.shard, budgets[i].verify)
			cfg.Progress.CyclesSaved.AddAt(a.shard, budgets[i].saved)
		}
		return err
	})
	if err != nil {
		return res, err
	}
	res.GoldenLogBytes = e.stream.residentBytes()

	for i, d := range details {
		res.Total++
		res.Counts[d.Category]++
		res.ByField[d.Injection.Field()]++
		res.Budget.add(budgets[i], d.Category)
		if d.Verified && d.Detected && d.Recoverable {
			res.RecoveryAttempted++
			if d.RecoveredInFull && !d.MachineCheck && !d.SDCUnderITR {
				res.RecoveryConfirmed++
			}
		}
		if d.CheckpointRecovered {
			res.CheckpointRecovered++
		}
	}
	res.Details = details
	return res, nil
}
