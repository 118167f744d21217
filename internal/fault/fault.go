// Package fault implements the paper's Section 4 fault-injection
// methodology: random single-bit flips on the decode signals of one dynamic
// instruction, each faulty run compared against the fault-free commit log
// (GoldenStream), and classification into the ten outcome categories of
// Figure 8. The Section 2.4 ITR-cache, Section 2.5 fetch-PC and rename
// studies run on the same injection engine (engine.go).
//
// Each Figure 8 injection is evaluated with two pipeline runs:
//
//   - an *observe* run (core.ModeObserve): ITR records detections but never
//     recovers, exposing the fault's natural outcome — silent data
//     corruption (SDC), deadlock (wdog), or masked — alongside whether and
//     how ITR would have detected it;
//   - an optional *verify* run (core.ModeFull): the complete protocol, used
//     to confirm that recoverable detections actually recover (flush and
//     restart) and unrecoverable ones raise machine checks.
package fault

import (
	"fmt"
	"sync"

	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/sig"
)

// Category is one Figure 8 outcome class.
type Category string

// The ten Figure 8 categories, in the paper's legend order.
const (
	ITRMask    Category = "ITR+Mask"    // detected by ITR; fault architecturally masked
	ITRSDCD    Category = "ITR+SDC+D"   // detected; state corrupted; detection only
	ITRSDCR    Category = "ITR+SDC+R"   // detected; would have been SDC; recoverable
	ITRWdogR   Category = "ITR+wdog+R"  // detected; would have deadlocked; recovered
	MayITRMask Category = "MayITR+Mask" // undetected in window; faulty signature still cached
	MayITRSDC  Category = "MayITR+SDC"
	SpcSDC     Category = "spc+SDC" // caught only by the sequential-PC check
	UndetMask  Category = "Undet+Mask"
	UndetWdog  Category = "Undet+wdog"
	UndetSDC   Category = "Undet+SDC"
)

// Categories lists all outcome classes in the paper's legend order.
func Categories() []Category {
	return []Category{
		UndetSDC, UndetWdog, UndetMask, SpcSDC,
		MayITRSDC, MayITRMask,
		ITRWdogR, ITRSDCR, ITRSDCD, ITRMask,
	}
}

// Injection names a single-event upset: flip Bit of the packed decode-signal
// word of decode event DecodeIndex (Table 2 fault model).
type Injection struct {
	DecodeIndex int64
	Bit         int
}

// Field returns the Table 2 field the injection lands in.
func (in Injection) Field() string { return isa.SignalField(in.Bit) }

// Detail carries everything observed for one injection.
type Detail struct {
	Injection Injection
	Category  Category

	// Observe-run facts.
	Detected       bool
	Recoverable    bool // the mismatching access was the faulty instance
	NaturalSDC     bool
	Deadlock       bool
	SpcFired       bool
	Halted         bool
	FaultyResident bool // faulty signature still in ITR cache at window end

	// Detection latency (observe run): machine time from the injection's
	// decode event to the backend's first detection, in pipeline cycles
	// and committed instructions (the trace length the fault survived).
	// Both are -1 when the fault went undetected.
	LatencyCycles int64
	LatencyInsts  int64

	// Verify-run facts (zero value when verification is disabled).
	Verified        bool
	RecoveredInFull bool // full protocol recovered (retry matched)
	MachineCheck    bool // full protocol aborted the program
	SDCUnderITR     bool // state still corrupted despite full protocol
	// CheckpointRecovered: the verify run converted a machine check into a
	// coarse-grain checkpoint rollback and the reference stream stayed
	// clean afterwards (Section 2.3 extension).
	CheckpointRecovered bool
}

// SigOracle computes fault-free trace signatures by static walk over the
// program's DecodeTable, memoizing per start PC. It answers "which side of a
// mismatch was faulty".
type SigOracle struct {
	tab  *program.DecodeTable
	mu   sync.Mutex
	memo map[uint64]uint64
}

// NewSigOracle builds an oracle for prog.
func NewSigOracle(prog *program.Program) *SigOracle {
	return &SigOracle{tab: prog.DecodeTable(), memo: make(map[uint64]uint64)}
}

// TrueSig returns the fault-free signature of the static trace starting at
// pc, replicating the trace-formation rule (terminate on branch or at 16).
func (o *SigOracle) TrueSig(pc uint64) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if v, ok := o.memo[pc]; ok {
		return v
	}
	var acc sig.Accumulator
	cur := pc
	for {
		w := o.tab.Word(cur)
		acc.Add(w)
		if isa.WordIsBranching(w) || acc.Full() || isa.WordOpcode(w) == isa.OpHalt {
			break
		}
		cur++
	}
	o.memo[pc] = acc.Value()
	return acc.Value()
}

// DefaultSnapshotInterval is the decode-event spacing of pilot snapshots
// when Config.SnapshotInterval is zero. Captures are copy-on-write, so the
// spacing is tuned for the resume gap — an injection re-simulates half the
// interval on average before its fault fires — not capture cost.
const DefaultSnapshotInterval = 2048

// Config parameterizes a single-injection experiment.
type Config struct {
	ITR          core.Config
	Pipeline     pipeline.Config // ITR fields are overridden per run
	WindowCycles int64           // observation window (paper: 1M cycles)
	Verify       bool            // run the full-protocol confirmation pass
	// Checkpoint enables the Section 2.3 coarse-grain checkpointing
	// extension in the verify run, upgrading detection-only machine checks
	// into rollbacks when the corruption postdates the last checkpoint.
	Checkpoint bool
	// SnapshotInterval is the decode-event spacing of every study's pilot
	// snapshots, which injections resume from instead of re-simulating the
	// shared fault-free prefix. 0 means DefaultSnapshotInterval; negative
	// disables the fast path (every run starts cold). Results are
	// bit-identical either way.
	SnapshotInterval int64
	// Exact disables the decided-outcome engine, forcing every Figure 8
	// injection to simulate its full window — the byte-identical reference
	// path. By default snapshot-resumed runs stop once their classification
	// is settled; their Details may then differ in category-irrelevant facts
	// (Halted, and FaultyResident on detected runs), never in categories,
	// counts or recovery verdicts.
	Exact bool
}

// EffectiveSnapshotInterval resolves the SnapshotInterval convention in one
// place: zero maps to DefaultSnapshotInterval, a negative value disables the
// fast path and resolves to 0, and a positive value is used as-is.
func (c Config) EffectiveSnapshotInterval() int64 {
	switch {
	case c.SnapshotInterval == 0:
		return DefaultSnapshotInterval
	case c.SnapshotInterval < 0:
		return 0
	default:
		return c.SnapshotInterval
	}
}

// pipelineConfig returns the study's pipeline configuration with the
// detection backend enabled in the given mode. Every machine the fault
// studies build starts here, so the backend selection riding in
// Config.Pipeline (Detector, DetectorOpts) reaches all of them identically.
func (c Config) pipelineConfig(mode core.Mode) pipeline.Config {
	pcfg := c.Pipeline
	pcfg.ITREnabled = true
	pcfg.ITR = c.ITR
	pcfg.ITRMode = mode
	return pcfg
}

// DefaultConfig mirrors the paper's Section 4 setup (two-way 1024-signature
// ITR cache) with a window scaled for quick runs; raise WindowCycles to 1M
// for paper-fidelity campaigns.
func DefaultConfig() Config {
	return Config{
		ITR:          core.DefaultConfig(),
		Pipeline:     pipeline.DefaultConfig(),
		WindowCycles: 250_000,
		Verify:       true,
	}
}

// RunOne performs one injection experiment and classifies it, simulating
// from cycle 0 (campaigns resume from pilot snapshots via RunCampaign).
func RunOne(prog *program.Program, oracle *SigOracle, cfg Config, inj Injection) (Detail, error) {
	e := newEngine(prog, cfg, 0)
	e.oracle = oracle
	e.decodeSources(e.newSource(cfg.pipelineConfig(core.ModeObserve), cfg.WindowCycles))
	return e.runOne(&arena{}, inj, nil, &runBudget{})
}

// decodeSources sets the Figure 8 machines: observe legs run on the
// observe pilot's source, and verify legs on a full-protocol machine that
// restores the same snapshots.
func (e *engine) decodeSources(observe *source) {
	e.observe = observe
	e.verify = &source{cfg: e.cfg.pipelineConfig(core.ModeFull), window: observe.window}
	e.verify.cfg.CheckpointEnabled = e.cfg.Checkpoint
}

// decodeBit is the Figure 8 target: flip Bit of the decode signals of
// decode event DecodeIndex.
type decodeBit Injection

func (d decodeBit) precedes(s *pipeline.Snapshot) bool { return s.DecodeEvents < d.DecodeIndex }

// run arms the flip and runs the window. A leg resumed from a snapshot
// stops once its classification is settled (decide.go) unless the study is
// exact. An observe leg that will be verified first runs hook-free to just
// before the fault and captures the verify leg's fork point there (not under
// checkpointing, which makes forked verify runs unsound).
func (d decodeBit) run(e *engine, r *legRun) error {
	cpu, window := r.cpu, e.cfg.WindowCycles
	decide := r.resumed && !e.cfg.Exact
	if decide && !r.full && e.cfg.Verify && !e.cfg.Checkpoint {
		if stop := d.DecodeIndex - preFaultMargin; stop > r.from.DecodeEvents {
			pres := cpu.RunUntilDecode(window-r.from.Cycle, stop)
			if pres.Termination == pipeline.TermBudget && cpu.DecodeEvents() < d.DecodeIndex {
				r.fork = cpu.Snapshot()
			}
		}
	}
	// The hook flips the bit once, stamps the time, and uninstalls itself.
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, sig isa.DecodeSignals) isa.DecodeSignals {
		if i != d.DecodeIndex {
			return sig
		}
		r.at = &pipeline.DetectionStamp{Cycle: cpu.CycleCount(), Committed: cpu.CommittedInsts()}
		cpu.SetFaultHook(nil)
		return sig.FlipBit(d.Bit)
	})
	if decide {
		d.decide(e, r)
	} else {
		r.res = cpu.Run(window - r.from.Cycle)
	}
	return nil
}

// runOne performs one Figure 8 injection: an observe leg resumed from from
// (cold when nil), then, for detected faults, a verify leg. Verify resumes
// from the observe leg's pre-fault fork, else from the same snapshot, except
// under checkpointing, whose prefix it cannot reproduce. bud receives the
// legs' cycle accounting.
func (e *engine) runOne(a *arena, inj Injection, from *pipeline.Snapshot, bud *runBudget) (Detail, error) {
	det := Detail{Injection: inj, LatencyCycles: -1, LatencyInsts: -1}
	r, err := a.leg(e, e.observe, decodeBit(inj), from)
	if err != nil {
		return det, fmt.Errorf("observe run: %w", err)
	}
	bud.leg(r, e.cfg.WindowCycles)
	bud.decidedEarly = r.early
	cpu := r.cpu
	det.NaturalSDC = r.cur.diverged
	det.Deadlock = r.res.Termination == pipeline.TermDeadlock
	det.Halted = r.res.Termination == pipeline.TermHalt
	det.SpcFired = r.res.SpcFired > 0

	detections := cpu.Detector().Detections()
	det.Detected = len(detections) > 0
	if stamps := cpu.DetectionStamps(); det.Detected && r.at != nil && len(stamps) > 0 {
		// Stamps were reset at the Restore and the resumed prefix is
		// fault-free, so the first stamp is the first detection.
		det.LatencyCycles = stamps[0].Cycle - r.at.Cycle
		det.LatencyInsts = stamps[0].Committed - r.at.Committed
	}
	if det.Detected && detect.PreCommit(e.cfg.Pipeline.Detector) {
		// Recoverability only exists for backends that detect before the
		// faulty instance commits: a chunked-replay verdict arrives after
		// retirement, so a flush-and-retry can never help it.
		first := detections[0]
		det.Recoverable = first.AccessSig != e.oracle.TrueSig(first.StartPC)
	}
	// MayITR: a faulty signature resident at window end (paper footnote 1).
	// The category is ITR-specific — rival backends hold no signature cache,
	// so an undetected fault of theirs classifies as plain Undet.
	if ck := cpu.Checker(); ck != nil {
		det.FaultyResident = faultyResident(ck, e.oracle)
	}
	det.Category = classify(det)

	if !e.cfg.Verify || !det.Detected {
		return det, nil
	}
	vfrom := r.fork
	if vfrom == nil && !e.cfg.Checkpoint {
		vfrom = from
	}
	v, err := a.leg(e, e.verify, decodeBit(inj), vfrom)
	if err != nil {
		return det, fmt.Errorf("verify run: %w", err)
	}
	bud.leg(v, e.cfg.WindowCycles)
	if r.fork != nil { // the fork skipped the observe leg's prefix
		bud.saved += r.fork.Cycle - r.from.Cycle
		bud.verifyForked = true
	}
	det.Verified = true
	det.RecoveredInFull = v.cpu.Detector().Stats().Recoveries > 0
	det.MachineCheck = v.res.Termination == pipeline.TermMachineCheck
	det.SDCUnderITR = v.cur.diverged
	det.CheckpointRecovered = e.cfg.Checkpoint && v.res.CheckpointRollbacks > 0 &&
		!det.MachineCheck && !det.SDCUnderITR
	return det, nil
}

// classify maps observed facts to the Figure 8 category.
func classify(d Detail) Category {
	switch {
	case d.Detected && d.Deadlock:
		return ITRWdogR
	case d.Detected && d.NaturalSDC && d.Recoverable:
		return ITRSDCR
	case d.Detected && d.NaturalSDC:
		return ITRSDCD
	case d.Detected:
		return ITRMask
	case d.FaultyResident && d.NaturalSDC:
		return MayITRSDC
	case d.FaultyResident:
		return MayITRMask
	case d.SpcFired && d.NaturalSDC:
		return SpcSDC
	case d.NaturalSDC:
		return UndetSDC
	case d.Deadlock:
		return UndetWdog
	default:
		return UndetMask
	}
}
