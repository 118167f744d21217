package fault

import (
	"fmt"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// The reference oracles of the injection engine: a lockstep golden model and
// one cold runner per non-decode target. Each oracle builds a fresh machine,
// simulates from cycle 0 with the golden model attached, and classifies one
// injection; the engine's resumed, pooled legs must reproduce every verdict.

// golden is the lockstep fault-free reference execution attached to a
// pipeline's commit stream. It supports snapshot/restore so checkpointed
// pipelines can rewind the reference alongside the machine.
type golden struct {
	st       *isa.ArchState
	mem      *isa.Memory
	prog     *program.Program
	tab      *program.DecodeTable
	diverged bool

	snapValid    bool
	snapR        [isa.NumRegs]uint64
	snapF        [isa.NumRegs]uint64
	snapPC       uint64
	snapMem      *isa.Memory
	snapDiverged bool
}

func newGolden(prog *program.Program) *golden {
	mem := isa.NewMemory()
	g := &golden{st: &isa.ArchState{Mem: mem}, mem: mem, prog: prog, tab: prog.DecodeTable()}
	g.st.PC = prog.Entry
	return g
}

// checkpoint mirrors the pipeline's checkpoint lifecycle: snapshot the
// reference on take, restore it on rollback. Both sides ride the memory's
// copy-on-write machinery — capture shares pages by reference and rollback
// reverts only pages the reference dirtied since — so checkpointed verify
// runs no longer deep-copy the whole reference footprint per window.
func (g *golden) checkpoint(taken bool) {
	if taken {
		g.snapValid = true
		g.snapR = g.st.R
		g.snapF = g.st.F
		g.snapPC = g.st.PC
		g.snapMem = g.mem.Snapshot()
		g.snapDiverged = g.diverged
		return
	}
	if !g.snapValid {
		return
	}
	g.st.R = g.snapR
	g.st.F = g.snapF
	g.st.PC = g.snapPC
	g.mem.CopyFrom(g.snapMem)
	g.diverged = g.snapDiverged
}

// observe compares one committed instruction against the reference.
func (g *golden) observe(pc uint64, o *isa.Outcome) {
	if g.diverged {
		return
	}
	if pc != g.st.PC {
		g.diverged = true
		return
	}
	var want isa.Outcome
	g.st.ExecInto(&want, g.tab.Signals(pc), pc)
	g.st.ApplyRef(&want)
	if !o.SameArchEffect(&want) {
		g.diverged = true
	}
}

// RunPCFault injects one fetch-PC bit flip at the given cycle and classifies
// the outcome. The ITR checker runs in observe mode so the natural
// consequence is visible alongside every check that fires.
func RunPCFault(prog *program.Program, cfg Config, atCycle int64, bit int) (PCOutcome, error) {
	pcfg := cfg.pipelineConfig(core.ModeObserve)
	cpu, err := pipeline.New(prog, pcfg)
	if err != nil {
		return "", fmt.Errorf("pc fault run: %w", err)
	}
	g := newGolden(prog)
	cpu.SetCommitObserver(g.observe)
	cpu.SchedulePCFault(atCycle, bit)

	// Baseline repair count up to the injection point must be excluded:
	// run a clean reference for the same window to measure the expected
	// mispredict count.
	ref, err := pipeline.New(prog, pcfg)
	if err != nil {
		return "", err
	}
	refRes := ref.Run(cfg.WindowCycles)

	res := cpu.Run(cfg.WindowCycles)
	detections := cpu.Detector().Detections()

	switch {
	case len(detections) > 0:
		return PCDetectedITR, nil
	case res.Termination == pipeline.TermDeadlock:
		return PCDeadlock, nil
	case res.SpcFired > 0:
		return PCDetectedSpc, nil
	case !g.diverged && res.Mispredicts > refRes.Mispredicts:
		// Extra repair events relative to the fault-free run: the branch
		// unit redirected the corrupted path and no damage remains.
		return PCDetectedBranch, nil
	case g.diverged:
		return PCUndetectedSDC, nil
	default:
		return PCMasked, nil
	}
}

// RunCacheFault corrupts one resident ITR cache line mid-run and classifies
// the consequence. parity selects whether the Section 2.4 protection is on.
func RunCacheFault(prog *program.Program, cfg Config, parity bool, warmCycles int64, pick uint64, bit int) (CacheFaultOutcome, bool, error) {
	if name := detect.Canonical(cfg.Pipeline.Detector); name != detect.NameITR {
		return "", false, fmt.Errorf("cache fault study targets the ITR signature cache; detector backend %q has none", name)
	}
	pcfg := cfg.pipelineConfig(core.ModeFull)
	pcfg.ITR.Parity = parity
	cpu, err := pipeline.New(prog, pcfg)
	if err != nil {
		return "", false, fmt.Errorf("cache fault run: %w", err)
	}
	g := newGolden(prog)
	cpu.SetCommitObserver(g.observe)

	// Warm the ITR cache, then flip one bit of one resident signature.
	cpu.Run(warmCycles)
	var lines []*cache.Line
	cpu.Checker().Cache().Visit(func(ln *cache.Line) { lines = append(lines, ln) })
	if len(lines) == 0 {
		return "", false, fmt.Errorf("cache fault: no resident lines after %d warm cycles", warmCycles)
	}
	victim := lines[pick%uint64(len(lines))]
	victim.Value ^= 1 << uint(bit&63)

	res := cpu.Run(cfg.WindowCycles)
	st := cpu.Checker().Stats()

	var out CacheFaultOutcome
	switch {
	case st.ParityRecovers > 0:
		out = CacheParityRepaired
	case res.Termination == pipeline.TermMachineCheck:
		out = CacheFalseMachineCheck
	default:
		out = CacheMasked
	}
	return out, g.diverged, nil
}

// RunRenameFault evaluates one rename-index upset with and without the
// rename-protection extension.
func RunRenameFault(prog *program.Program, cfg Config, inj RenameInjection) (withoutSDC, frontendDetected, detected, recovered, withSDC bool, err error) {
	// Pass 1: frontend ITR only, observe mode — the paper's baseline.
	cpu, err := pipeline.New(prog, cfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		return false, false, false, false, false, fmt.Errorf("rename fault baseline: %w", err)
	}
	g := newGolden(prog)
	cpu.SetCommitObserver(g.observe)
	cpu.SetRenameFaultHook(renameHook(inj))
	cpu.Run(cfg.WindowCycles)
	withoutSDC = g.diverged
	frontendDetected = len(cpu.Detector().Detections()) > 0

	// Pass 2: rename extension attached, full protocol.
	pcfg := cfg.pipelineConfig(core.ModeFull)
	pcfg.RenameITREnabled = true
	vcpu, err := pipeline.New(prog, pcfg)
	if err != nil {
		return false, false, false, false, false, fmt.Errorf("rename fault extension: %w", err)
	}
	vg := newGolden(prog)
	vcpu.SetCommitObserver(vg.observe)
	vcpu.SetRenameFaultHook(renameHook(inj))
	vcpu.Run(cfg.WindowCycles)
	rst := vcpu.RenameChecker().Stats()
	detected = rst.Mismatches > 0
	recovered = rst.Recoveries > 0
	withSDC = vg.diverged
	return withoutSDC, frontendDetected, detected, recovered, withSDC, nil
}
