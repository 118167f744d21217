package fault

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
)

// RenameInjection names a single-event upset on the rename-map index logic:
// XOR the chosen index of decode event DecodeIndex with Mask.
type RenameInjection struct {
	DecodeIndex int64
	Operand     int   // 0 = src1, 1 = src2, 2 = dst
	Mask        uint8 // non-zero, 5 bits
}

// RenameCampaignResult quantifies the rename-protection extension: how many
// rename-unit faults the frontend signature misses, and how many the rename
// signature detects and recovers.
type RenameCampaignResult struct {
	Total int
	// Without the extension (frontend ITR only):
	SDCWithoutExtension int // architectural corruption, undetected
	MaskedWithout       int
	FrontendDetected    int // should stay 0: the signals are uncorrupted
	// With the extension:
	DetectedWithExtension  int
	RecoveredWithExtension int
	SDCWithExtension       int // corruption that still slipped through
}

// Pct returns n as a percentage of the injections.
func (r RenameCampaignResult) Pct(n int) float64 { return pct(n, r.Total) }

// SDCWithoutPct returns the silent-corruption rate with only frontend ITR.
func (r RenameCampaignResult) SDCWithoutPct() float64 { return r.Pct(r.SDCWithoutExtension) }

// DetectedPct returns the detection rate with the rename extension.
func (r RenameCampaignResult) DetectedPct() float64 { return r.Pct(r.DetectedWithExtension) }

// renameHook builds the one-shot index corruption: XOR one rename index of
// decode event DecodeIndex with Mask (taken as 5 bits, 0 meaning 1).
func renameHook(inj RenameInjection) pipeline.RenameFaultHook {
	done := false
	return func(i int64, ri pipeline.RenameIndexes) pipeline.RenameIndexes {
		if done || i != inj.DecodeIndex {
			return ri
		}
		done = true
		m := max(isa.RegID(inj.Mask&0x1f), 1)
		switch inj.Operand % 3 {
		case 0:
			ri.Src1 ^= m
		case 1:
			ri.Src2 ^= m
		default:
			ri.Dst ^= m
		}
		return ri
	}
}

// renameIndex is the rename-study target.
type renameIndex RenameInjection

func (f renameIndex) precedes(s *pipeline.Snapshot) bool { return s.DecodeEvents < f.DecodeIndex }

func (f renameIndex) run(e *engine, r *legRun) error {
	r.cpu.SetRenameFaultHook(renameHook(RenameInjection(f)))
	r.res = r.cpu.Run(e.cfg.WindowCycles - r.from.Cycle)
	return nil
}

// renameVerdict is one upset's outcome without and with the extension.
type renameVerdict struct {
	withoutSDC, frontendDetected, detected, recovered, withSDC bool
}

// RunRenameCampaign injects n randomized rename-index faults.
func RunRenameCampaign(prog *program.Program, cfg Config, n int, seed uint64) (RenameCampaignResult, error) {
	var res RenameCampaignResult
	_, verdicts, err := runRenameStudy(prog, cfg, n, seed)
	for _, v := range verdicts {
		res.Total++
		if v.withoutSDC {
			res.SDCWithoutExtension++
		} else {
			res.MaskedWithout++
		}
		if v.frontendDetected {
			res.FrontendDetected++
		}
		if v.detected {
			res.DetectedWithExtension++
		}
		if v.recovered {
			res.RecoveredWithExtension++
		}
		if v.withSDC {
			res.SDCWithExtension++
		}
	}
	return res, err
}

// runRenameStudy samples n rename-index upsets over the observe pilot's
// decode events and runs each twice: with frontend ITR only in observe mode
// (the paper's baseline), and with the rename extension under the full
// protocol, whose different machine needs a pilot of its own.
func runRenameStudy(prog *program.Program, cfg Config, n int, seed uint64) ([]renameIndex, []renameVerdict, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("rename campaign: non-positive count %d", n)
	}
	e := newEngine(prog, cfg, seed)
	base, ref, err := e.pilot(cfg.pipelineConfig(core.ModeObserve), cfg.WindowCycles, cfg.WindowCycles/2)
	if err != nil {
		return nil, nil, fmt.Errorf("rename campaign %w", err)
	}
	if ref.DecodeEvents < 100 {
		return nil, nil, fmt.Errorf("rename campaign: window too small (%d decode events)", ref.DecodeEvents)
	}
	rng := stats.NewRNG(seed)
	faults := make([]renameIndex, n)
	var last renameIndex
	for i := range faults {
		faults[i].DecodeIndex = decodeSample(rng, ref.DecodeEvents)
		faults[i].Operand = rng.Intn(3)
		faults[i].Mask = uint8(1 + rng.Intn(31))
		last.DecodeIndex = max(last.DecodeIndex, faults[i].DecodeIndex)
	}
	if err := e.extend(base, last); err != nil {
		return nil, nil, fmt.Errorf("rename campaign %w", err)
	}
	// The extended machine's pilot only supplies snapshots: it stops once it
	// holds the one the latest fault resumes from.
	ecfg := cfg.pipelineConfig(core.ModeFull)
	ecfg.RenameITREnabled = true
	ext := e.newSource(ecfg, cfg.WindowCycles)
	if err := e.extend(ext, last); err != nil {
		return nil, nil, fmt.Errorf("rename campaign %w", err)
	}
	verdicts := make([]renameVerdict, n)
	sch := plan([]*source{base, ext}, faults)
	return faults, verdicts, pool(e, sch, faults, func(a *arena, i int, from []*pipeline.Snapshot) error {
		r, err := a.leg(e, base, faults[i], from[0])
		if err != nil {
			return err
		}
		v := &verdicts[i]
		v.withoutSDC, v.frontendDetected = r.cur.diverged, len(r.cpu.Detector().Detections()) > 0
		if r, err = a.leg(e, ext, faults[i], from[1]); err != nil {
			return err
		}
		st := r.cpu.RenameChecker().Stats()
		v.detected, v.recovered, v.withSDC = st.Mismatches > 0, st.Recoveries > 0, r.cur.diverged
		return nil
	})
}
