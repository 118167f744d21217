package fault

import (
	"fmt"
	"math/bits"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
)

// PCOutcome classifies one fetch-PC upset.
type PCOutcome string

// PC fault outcomes.
const (
	// PCDetectedITR: the disruption landed mid-trace, so the polluted
	// trace's signature mismatched in the ITR cache.
	PCDetectedITR PCOutcome = "itr"
	// PCDetectedBranch: the corrupted fetch path was repaired by normal
	// branch resolution (the execution unit checks predicted targets, the
	// protection the paper notes already exists for branch boundaries).
	PCDetectedBranch PCOutcome = "branch-repair"
	// PCDetectedSpc: the commit-PC (sequential PC) check caught a
	// discontinuity at a natural trace boundary.
	PCDetectedSpc PCOutcome = "spc"
	// PCUndetectedSDC: architectural state corrupted with no check firing
	// within the window — the Section 2.5 vulnerability.
	PCUndetectedSDC PCOutcome = "undetected-sdc"
	// PCMasked: no architectural corruption and no check fired.
	PCMasked PCOutcome = "masked"
	// PCDeadlock: the machine deadlocked and only the watchdog caught it.
	PCDeadlock PCOutcome = "wdog"
)

// PCOutcomes lists the classes in report order.
func PCOutcomes() []PCOutcome {
	return []PCOutcome{PCDetectedITR, PCDetectedBranch, PCDetectedSpc, PCUndetectedSDC, PCMasked, PCDeadlock}
}

// PCFaultResult aggregates a PC-fault campaign.
type PCFaultResult struct {
	Total  int
	Counts map[PCOutcome]int
}

// Pct returns the percentage of injections with outcome o.
func (r PCFaultResult) Pct(o PCOutcome) float64 { return pct(r.Counts[o], r.Total) }

// pct returns n as a percentage of total (0 when total is 0).
func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// fetchPC is the Section 2.5 target: flip bit of the fetch PC at cycle.
type fetchPC struct {
	cycle int64
	bit   int
}

func (f fetchPC) precedes(s *pipeline.Snapshot) bool { return s.Cycle < f.cycle }

func (f fetchPC) run(e *engine, r *legRun) error {
	r.cpu.SchedulePCFault(f.cycle, f.bit)
	r.res = r.cpu.Run(e.cfg.WindowCycles - r.from.Cycle)
	return nil
}

// RunPCFaultCampaign injects n randomized fetch-PC faults, in observe mode
// so each natural consequence shows alongside every check that fires.
func RunPCFaultCampaign(prog *program.Program, cfg Config, n int, seed uint64) (PCFaultResult, error) {
	res := PCFaultResult{Counts: make(map[PCOutcome]int)}
	_, outs, err := runPCStudy(prog, cfg, n, seed)
	for _, o := range outs {
		res.Total++
		res.Counts[o]++
	}
	return res, err
}

// runPCStudy samples n fetch-PC upsets and classifies each.
func runPCStudy(prog *program.Program, cfg Config, n int, seed uint64) ([]fetchPC, []PCOutcome, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("pc fault campaign: non-positive count %d", n)
	}
	rng := stats.NewRNG(seed)
	// Flips within the image dominate; one extra bit allows out-of-image
	// excursions (fetching past the image returns halts).
	bitRange := bits.Len64(uint64(prog.Len())) + 1
	faults := make([]fetchPC, n)
	horizon := int64(0)
	for i := range faults {
		faults[i].bit = rng.Intn(bitRange)
		faults[i].cycle = 1 + int64(rng.Uint64n(uint64(cfg.WindowCycles/2)))
		horizon = max(horizon, faults[i].cycle)
	}
	// The faults are drawn up front, so the pilot captures nothing at or
	// past the latest; it still runs the window for the mispredict baseline.
	e := newEngine(prog, cfg, seed)
	src, ref, err := e.pilot(cfg.pipelineConfig(core.ModeObserve), cfg.WindowCycles, horizon)
	if err != nil {
		return nil, nil, fmt.Errorf("pc fault %w", err)
	}
	outs, err := study(e, src, faults, func(r *legRun) PCOutcome {
		switch {
		case len(r.cpu.Detector().Detections()) > 0:
			return PCDetectedITR
		case r.res.Termination == pipeline.TermDeadlock:
			return PCDeadlock
		case r.res.SpcFired > 0:
			return PCDetectedSpc
		case !r.cur.diverged && r.res.Mispredicts > ref.Mispredicts:
			// Repairs beyond the fault-free pilot's: the branch unit
			// redirected the corrupted path and no damage remains.
			return PCDetectedBranch
		case r.cur.diverged:
			return PCUndetectedSDC
		default:
			return PCMasked
		}
	})
	return faults, outs, err
}

// CacheFaultOutcome classifies an upset on a stored ITR signature.
type CacheFaultOutcome string

// Cache fault outcomes.
const (
	// CacheFalseMachineCheck: without parity, the corrupted line's next
	// hit mismatches twice and raises a machine check even though the
	// program is fine (the false abort the paper describes).
	CacheFalseMachineCheck CacheFaultOutcome = "false-machine-check"
	// CacheParityRepaired: parity identified the line fault; the line was
	// repaired with the freshly generated signature and execution
	// continued (Section 2.4's fix).
	CacheParityRepaired CacheFaultOutcome = "parity-repaired"
	// CacheMasked: the corrupted line was evicted or overwritten before
	// any instance referenced it.
	CacheMasked CacheFaultOutcome = "masked"
)

// CacheFaultResult aggregates an ITR-cache fault campaign.
type CacheFaultResult struct {
	Total  int
	Counts map[CacheFaultOutcome]int
	// SDC counts runs where architectural state diverged (should stay 0:
	// ITR cache faults never corrupt the program, they can only abort it).
	SDC int
}

// Pct returns the percentage of injections with outcome o.
func (r CacheFaultResult) Pct(o CacheFaultOutcome) float64 { return pct(r.Counts[o], r.Total) }

// cacheLine is the Section 2.4 target: after warm cycles, flip bit of the
// resident ITR cache line pick selects (modulo the resident count).
type cacheLine struct {
	warm int64
	pick uint64
	bit  int
}

func (c cacheLine) precedes(s *pipeline.Snapshot) bool { return s.Cycle < c.warm }

// run warms the cache, corrupts the line, then observes a full window.
func (c cacheLine) run(e *engine, r *legRun) error {
	r.cpu.Run(c.warm - r.from.Cycle)
	var lines []*cache.Line
	r.cpu.Checker().Cache().Visit(func(ln *cache.Line) { lines = append(lines, ln) })
	if len(lines) == 0 {
		return fmt.Errorf("cache fault: no resident lines after %d warm cycles", c.warm)
	}
	lines[c.pick%uint64(len(lines))].Value ^= 1 << uint(c.bit&63)
	r.res = r.cpu.Run(e.cfg.WindowCycles)
	return nil
}

// cacheVerdict is one cache-line upset's outcome and whether state diverged.
type cacheVerdict struct {
	out CacheFaultOutcome
	sdc bool
}

// RunCacheFaultCampaign injects n randomized ITR-cache line faults under the
// full protocol. parity selects whether the Section 2.4 protection is on.
func RunCacheFaultCampaign(prog *program.Program, cfg Config, parity bool, n int, seed uint64) (CacheFaultResult, error) {
	res := CacheFaultResult{Counts: make(map[CacheFaultOutcome]int)}
	_, verdicts, err := runCacheStudy(prog, cfg, parity, n, seed)
	for _, v := range verdicts {
		res.Total++
		res.Counts[v.out]++
		if v.sdc {
			res.SDC++
		}
	}
	return res, err
}

// runCacheStudy samples n cache-line upsets and classifies each. Every
// fault fires at the same warm point, so the pilot stops there.
func runCacheStudy(prog *program.Program, cfg Config, parity bool, n int, seed uint64) ([]cacheLine, []cacheVerdict, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("cache fault campaign: non-positive count %d", n)
	}
	if name := detect.Canonical(cfg.Pipeline.Detector); name != detect.NameITR {
		return nil, nil, fmt.Errorf("cache fault study targets the ITR signature cache; detector backend %q has none", name)
	}
	warm := max(cfg.WindowCycles/4, 1000)
	rng := stats.NewRNG(seed)
	faults := make([]cacheLine, n)
	for i := range faults {
		faults[i] = cacheLine{warm: warm, pick: rng.Uint64()}
		faults[i].bit = rng.Intn(64)
	}
	e := newEngine(prog, cfg, seed)
	pcfg := cfg.pipelineConfig(core.ModeFull)
	pcfg.ITR.Parity = parity
	src, _, err := e.pilot(pcfg, warm, warm)
	if err != nil {
		return nil, nil, fmt.Errorf("cache fault %w", err)
	}
	verdicts, err := study(e, src, faults, func(r *legRun) cacheVerdict {
		v := cacheVerdict{out: CacheMasked, sdc: r.cur.diverged}
		if r.cpu.Checker().Stats().ParityRecovers > 0 {
			v.out = CacheParityRepaired
		} else if r.res.Termination == pipeline.TermMachineCheck {
			v.out = CacheFalseMachineCheck
		}
		return v
	})
	return faults, verdicts, err
}
