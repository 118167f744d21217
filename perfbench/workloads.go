package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"itr/internal/core"
	"itr/internal/fault"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/report"
	"itr/internal/trace"
	"itr/internal/workload"
)

// size fixes how much work a workload does. paperSize is what the benchmark
// measures; tinySize is what its tests run.
type size struct {
	Fig8Faults  int   // fig8-paper injections per benchmark
	Fig8Window  int64 // fig8-paper observation window (cycles)
	StudyN      int   // fault-studies injections per study call
	StudyWindow int64 // fault-studies observation window (cycles)
	RivalFaults int   // fault-studies rival-backend decode campaign size
	Budget      int64 // paper-functional instruction budget per benchmark
	Benches     int   // keep the first Benches of each suite (0 = all)
	SetupReps   int   // extra program-synthesis samples timed in set-up

	// The traced run's pipeline probe: ProbeChunks Run calls of
	// ProbeChunkCycles each, spread over the workload's benchmarks, with a
	// snapshot after each chunk. ProbeChunks >= 200 leaves ten samples
	// beyond the reported 95th percentile.
	ProbeChunks      int
	ProbeChunkCycles int64
}

var paperSize = size{
	Fig8Faults: 1000, Fig8Window: 1_000_000,
	StudyN: 6, StudyWindow: 250_000, RivalFaults: 100,
	Budget:      workload.DefaultBudget,
	SetupReps:   9,
	ProbeChunks: 220, ProbeChunkCycles: 10_000,
}

var tinySize = size{
	Fig8Faults: 4, Fig8Window: 20_000,
	StudyN: 1, StudyWindow: 20_000, RivalFaults: 4,
	Budget:  20_000,
	Benches: 2, SetupReps: 1,
	ProbeChunks: 200, ProbeChunkCycles: 500,
}

// paperDetectedPct is the paper's published Figure 8 average share of
// injected faults detected through the ITR cache — the only reference
// result the Figure 8 model can be checked against.
const paperDetectedPct = 95.4

// fig8Seed is the itr CLI's default campaign seed.
const fig8Seed = 0x17b

// workloadDef is one named workload: the benchmarks it synthesizes in
// set-up and the calls its timed interval makes. The traced run's probes
// drive the same benchmarks.
type workloadDef struct {
	name   string
	seeded bool // false: the workload has no random inputs and ignores --seed
	// pregen: the workload generates event streams anyway, so the traced
	// run generates them first inside the timed interval instead of as a
	// probe after it.
	pregen  bool
	benches func(size) []workload.Profile
	run     func(*env) error
}

var workloads = []*workloadDef{
	{
		// The paper's headline experiment at the paper's own parameters:
		// a serial fault-free prefix per benchmark (pilot, golden stream,
		// snapshots) then parallel decided injections.
		name: "fig8-paper", seeded: true,
		benches: coverageSuite,
		run:     runFig8,
	},
	{
		// Cold full-window injections with no pilot sharing and no early
		// exit, plus the rival detector backends: the pipeline used the
		// other way round from fig8-paper.
		name: "fault-studies", seeded: true,
		benches: studySuite,
		run:     runStudies,
	},
	{
		// Every functional figure: memoized event streams, trace
		// characterization, the single-pass design-space sweep and the
		// energy model; never the pipeline or the fault injector.
		name: "paper-functional", pregen: true,
		benches: func(size) []workload.Profile { return workload.Suite() },
		run:     runFunctional,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func head(ps []workload.Profile, n int) []workload.Profile {
	if n > 0 && n < len(ps) {
		return ps[:n]
	}
	return ps
}

func coverageSuite(sz size) []workload.Profile { return head(workload.CoverageSuite(), sz.Benches) }

// studySuite is one SPECint and one SPECfp stand-in.
func studySuite(size) []workload.Profile {
	var out []workload.Profile
	for _, name := range []string{"gcc", "swim"} {
		p, err := workload.ByName(name)
		if err != nil {
			panic(err) // both are built-in profiles
		}
		out = append(out, p)
	}
	return out
}

// op is one checked operation: a per-benchmark campaign, one study call on
// one benchmark, or one figure or table. value is what its digest covers.
type op struct {
	name, bench string
	value       any
	err         error
}

// env is one run of one workload.
type env struct {
	seed uint64
	size size
	tr   *tracer // nil when untraced

	pipe  pipeline.Probe
	sweep report.Probe

	ops []op

	// Checks against the paper's published aggregates: the fig8-paper
	// average ITR-detected share, and the paper-functional Table 1 rows
	// whose static trace count equals the paper's.
	detectedPct               float64
	table1Matched, table1Rows int
	// fig8-paper decided-outcome accounting, summed over its campaigns.
	budget     fault.Budget
	injections int64
	// Traced-only stream probe totals.
	streamEvents, streamsGenerated int64
	// Traced-only pipeline probe samples.
	nsPerCycle, snapshotUS, restoreUS []float64
}

// counters reads the probe counters recorded at every top-level span
// boundary.
func (e *env) counters() map[string]int64 {
	return map[string]int64{
		"pipeline.cycles":            e.pipe.Cycles.Load(),
		"pipeline.snapshot_captures": e.pipe.SnapshotCaptures.Load(),
		"pipeline.snapshot_restores": e.pipe.SnapshotRestores.Load(),
		"pipeline.pages_copied":      e.pipe.SnapshotPagesCopied.Load(),
		"pipeline.detector_polls":    e.pipe.DetectorPolls.Load(),
		"report.streams_generated":   e.sweep.StreamsGenerated.Load(),
		"report.events_replayed":     e.sweep.EventsReplayed.Load(),
		"report.cells":               e.sweep.CellsCompleted.Load(),
	}
}

func (e *env) record(name, bench string, value any, err error) {
	e.ops = append(e.ops, op{name: name, bench: bench, value: value, err: err})
}

// campaignOutcome is the part of a decode campaign a speed-only change must
// leave identical: every injection's classification facts and the
// per-category counts.
type campaignOutcome struct {
	Counts  map[fault.Category]int
	Details []fault.Detail
}

// checkCampaign verifies a campaign's internal consistency; it is the check
// applied when no reference digest exists for the seed.
func checkCampaign(r fault.CampaignResult, faults int) (campaignOutcome, error) {
	out := campaignOutcome{Counts: r.Counts, Details: r.Details}
	if r.Total != faults || len(r.Details) != faults {
		return out, fmt.Errorf("%d injections, %d details, want %d", r.Total, len(r.Details), faults)
	}
	tally := make(map[fault.Category]int)
	for _, d := range r.Details {
		tally[d.Category]++
	}
	for _, c := range fault.Categories() {
		if tally[c] != r.Counts[c] {
			return out, fmt.Errorf("category %s: %d details, count %d", c, tally[c], r.Counts[c])
		}
	}
	return out, nil
}

func checkTotal(total, counted, want int) error {
	if total != want || counted != want {
		return fmt.Errorf("total %d, outcomes %d, want %d", total, counted, want)
	}
	return nil
}

func countSum[K comparable](m map[K]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func runFig8(e *env) error {
	profiles := coverageSuite(e.size)
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = e.size.Fig8Faults
	cfg.Seed = e.seed
	cfg.Workers = runtime.NumCPU()
	cfg.Experiment.WindowCycles = e.size.Fig8Window
	cfg.Experiment.Pipeline.Probe = &e.pipe
	// Parallelism lives in the per-injection pool, as in `itr fault`.
	rep := report.Engine{Workers: 1, Probe: &e.sweep}

	var rows []report.Figure8Row
	err := e.tr.top("report.Figure8", "", func(id int) error {
		rep.OnItem = e.tr.item(id, "fault.campaign")
		var err error
		rows, err = rep.Figure8(profiles, cfg)
		return err
	})
	if err != nil {
		for _, p := range profiles {
			e.record("campaign", p.Name, nil, err)
		}
		return nil
	}
	var detected float64
	for _, r := range rows {
		out, err := checkCampaign(r.Result, cfg.Faults)
		e.record("campaign", r.Benchmark, out, err)
		detected += r.Result.DetectedPct()
		b := r.Result.Budget
		e.budget.CyclesSimulated += b.CyclesSimulated
		e.budget.CyclesSaved += b.CyclesSaved
		e.budget.DecidedEarly += b.DecidedEarly
		e.budget.VerifyForked += b.VerifyForked
		e.budget.ProofFallbacks += b.ProofFallbacks
		e.injections += int64(r.Result.Total)
	}
	e.detectedPct = detected / float64(len(rows))
	return nil
}

func runStudies(e *env) error {
	profiles := studySuite(e.size)
	cfg := fault.DefaultConfig()
	cfg.WindowCycles = e.size.StudyWindow
	cfg.Pipeline.Probe = &e.pipe
	n := e.size.StudyN

	progs := make(map[string]*program.Program, len(profiles))
	for _, p := range profiles {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			return err
		}
		progs[p.Name] = prog
	}
	for _, p := range profiles {
		var res fault.PCFaultResult
		err := e.tr.top("fault.pc_study", p.Name, func(int) error {
			var err error
			res, err = fault.RunPCFaultCampaign(progs[p.Name], cfg, n, e.seed)
			return err
		})
		if err == nil {
			err = checkTotal(res.Total, countSum(res.Counts), n)
		}
		e.record("pc-study", p.Name, res, err)
	}
	for _, p := range profiles {
		var res fault.RenameCampaignResult
		err := e.tr.top("fault.rename_study", p.Name, func(int) error {
			var err error
			res, err = fault.RunRenameCampaign(progs[p.Name], cfg, n, e.seed)
			return err
		})
		if err == nil {
			err = checkTotal(res.Total, n, n)
		}
		e.record("rename-study", p.Name, res, err)
	}
	for _, p := range profiles {
		for _, parity := range []bool{false, true} {
			var res fault.CacheFaultResult
			err := e.tr.top("fault.cache_study", p.Name, func(int) error {
				var err error
				res, err = fault.RunCacheFaultCampaign(progs[p.Name], cfg, parity, n, e.seed)
				return err
			})
			if err == nil {
				err = checkTotal(res.Total, countSum(res.Counts), n)
			}
			e.record(fmt.Sprintf("cache-study-parity-%v", parity), p.Name, res, err)
		}
	}

	// The rival backends race the ITR checker on the same decode faults,
	// shaped like `itr shootout -bench gcc`.
	gcc := profiles[0]
	for _, backend := range []string{"reptfd", "dme"} {
		ccfg := fault.DefaultCampaignConfig()
		ccfg.Faults = e.size.RivalFaults
		ccfg.Seed = e.seed
		ccfg.Workers = runtime.NumCPU()
		ccfg.Experiment.WindowCycles = e.size.StudyWindow
		ccfg.Experiment.Pipeline.Detector = backend
		ccfg.Experiment.Pipeline.Probe = &e.pipe
		var res fault.CampaignResult
		err := e.tr.top("detect."+backend+"_campaign", gcc.Name, func(int) error {
			var err error
			res, err = fault.RunCampaign(gcc.Name, progs[gcc.Name], ccfg)
			return err
		})
		var out campaignOutcome
		if err == nil {
			out, err = checkCampaign(res, ccfg.Faults)
		}
		e.record(backend+"-campaign", gcc.Name, out, err)
	}
	return nil
}

func runFunctional(e *env) error {
	budget := e.size.Budget
	rep := report.Engine{Workers: runtime.NumCPU(), Probe: &e.sweep}
	call := func(opName, span, item string, fn func() (any, error)) {
		var v any
		err := e.tr.top(span, "", func(id int) error {
			rep.OnItem = e.tr.item(id, item)
			var err error
			v, err = fn()
			return err
		})
		e.record(opName, "", v, err)
	}
	intS, fpS := head(workload.IntSuite(), e.size.Benches), head(workload.FPSuite(), e.size.Benches)
	call("figure1", "report.PopularityFigure", "trace.characterize", func() (any, error) {
		return rep.PopularityFigure(intS, 100, 1000, budget)
	})
	call("figure2", "report.PopularityFigure", "trace.characterize", func() (any, error) {
		return rep.PopularityFigure(fpS, 50, 500, budget)
	})
	call("figure3", "report.DistanceFigure", "trace.characterize", func() (any, error) {
		return rep.DistanceFigure(intS, budget)
	})
	call("figure4", "report.DistanceFigure", "trace.characterize", func() (any, error) {
		return rep.DistanceFigure(fpS, budget)
	})
	call("table1", "report.Table1", "trace.characterize", func() (any, error) {
		rows, err := rep.Table1(budget)
		for _, r := range rows {
			if r.Measured == r.Paper {
				e.table1Matched++
			}
		}
		e.table1Rows = len(rows)
		return rows, err
	})
	call("figure6-7", "report.CoverageSweepWarm", "core.replay", func() (any, error) {
		return rep.CoverageSweepWarm(coverageSuite(e.size), core.DesignSpace(), budget, 0)
	})
	call("figure9", "report.Figure9", "core.replay", func() (any, error) {
		return rep.Figure9(head(workload.Suite(), e.size.Benches), budget, 200_000_000)
	})
	return nil
}

// streamProbe memoizes each benchmark's event stream at the workload budget
// on one worker per CPU, as the figures' report engine would: one
// workload.streams span with a workload.stream child per benchmark.
func (e *env) streamProbe(profiles []workload.Profile) error {
	infos := make([]workload.StreamInfo, len(profiles))
	errs := make([]error, len(profiles))
	err := e.tr.top("workload.streams", "", func(id int) error {
		done := e.tr.item(id, "workload.stream")
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < runtime.NumCPU(); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(profiles); i = int(next.Add(1)) - 1 {
					p := profiles[i]
					t0 := time.Now()
					infos[i], errs[i] = workload.StreamEventSlices(p, p.ScaledBudget(e.size.Budget), func([]trace.Event) {})
					done(p.Name, time.Since(t0))
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	for _, info := range infos {
		e.streamEvents += info.Events
		if info.Generated {
			e.streamsGenerated++
		}
	}
	return err
}

// pipelineProbe times fault-free pipeline runs in fixed-size chunks on
// machines configured like the fault campaigns' (ITR checker attached, no
// probe), then a snapshot after every chunk and a restore of every
// snapshot. It runs after the timed interval, in traced runs only.
func (e *env) pipelineProbe(profiles []workload.Profile) error {
	pcfg := pipeline.DefaultConfig()
	pcfg.ITREnabled = true
	pcfg.ITR = core.DefaultConfig()
	pcfg.ITRMode = core.ModeObserve
	chunks := int(math.Ceil(float64(e.size.ProbeChunks) / float64(len(profiles))))
	for _, p := range profiles {
		err := e.tr.top("pipeline.probe", p.Name, func(int) error {
			prog, err := workload.CachedProgram(p)
			if err != nil {
				return err
			}
			cpu, err := pipeline.New(prog, pcfg)
			if err != nil {
				return err
			}
			var snaps []*pipeline.Snapshot
			var last int64
			for i := 0; i < chunks; i++ {
				t0 := time.Now()
				res := cpu.Run(e.size.ProbeChunkCycles)
				d := time.Since(t0)
				if res.Cycles == last {
					return fmt.Errorf("program ended after %d cycles", last)
				}
				e.nsPerCycle = append(e.nsPerCycle, float64(d.Nanoseconds())/float64(res.Cycles-last))
				last = res.Cycles
				t0 = time.Now()
				snaps = append(snaps, cpu.Snapshot())
				e.snapshotUS = append(e.snapshotUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			for _, s := range snaps {
				t0 := time.Now()
				if err := cpu.Restore(s); err != nil {
					return err
				}
				e.restoreUS = append(e.restoreUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("pipeline probe %s: %w", p.Name, err)
		}
	}
	return nil
}
