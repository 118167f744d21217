package fault

import (
	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
)

// The decided-outcome engine: stop each injection run as soon as its Figure 8
// classification is information-theoretically settled instead of simulating
// the remainder of the observation window.
//
// The argument rests on one structural property of the fault model: exactly
// one decode event is corrupted, so once every pipeline structure that ever
// held the corrupted signals has drained, all *future* decodes are faithful.
// From that point the machine is a correct implementation of the ISA over
// whatever architectural state it reached, and each classification fact
// either is already final or is provable final:
//
//   - Deadlock: only a stalled corrupted uop can starve the watchdog (a
//     faithful decode never yields an unsatisfiable resource), and it keeps
//     the drain condition false until the watchdog fires.
//   - SpcFired: the sequential-PC check fires at most one commit after a
//     corrupted control commit; one clean commit past the drain point
//     settles it.
//   - NaturalSDC: the golden cursor is sticky once diverged. While clean,
//     convergence is *proved* (not assumed) by replaying the golden outcome
//     log from the run's own start snapshot and comparing the full
//     architectural state, memory included, against the machine.
//   - Detected/latency: detection events are append-only; for runs with none
//     yet, the backend's Settled contract plus (for ITR) a sweep of the
//     signature cache against the oracle rules out future events.
//
// Anything the proof cannot establish falls back to simulating the rest of
// the window, so the fast path is never less sound than the exact one. The
// argument covers only a single corrupted decode event, so PC, rename and
// cache legs always run their window to completion.
const (
	// decideProbeCycles is the simulation chunk between decision probes:
	// a settled run stops within ~1% of the paper's window, and probe
	// overhead vanishes against simulation cost.
	decideProbeCycles = 512

	// preFaultMargin is how many decode events before the injection the
	// observe run pauses to capture the verify run's fork point. It must
	// exceed the maximum decode events a single RunUntilDecode stopping
	// cycle can add (fetch width times the redundancy factor), so the
	// capture always lands strictly before the fault fires.
	preFaultMargin = 64

	// faultySweepBackoff throttles the ITR cache sweep while a faulty
	// signature is resident: only a rare eviction or detection can clear
	// it, so re-auditing every probe would waste oracle lookups.
	faultySweepBackoff = 8
)

// runBudget records one injection's simulation work, outside Detail so the
// accounting never perturbs classification payloads.
type runBudget struct {
	simulated     int64 // cycles actually simulated (observe + verify)
	saved         int64 // window cycles skipped by deciding early or forking
	decidedEarly  bool  // observe run exited before its window
	verifyForked  bool  // verify run resumed from the observe pre-fault fork
	proofFallback bool  // a convergence proof failed; run went to completion
}

// leg accounts one leg's simulated cycles and early-exit savings.
func (b *runBudget) leg(r *legRun, window int64) {
	b.simulated += r.cpu.CycleCount() - r.from.Cycle
	if r.early {
		b.saved += window - r.cpu.CycleCount()
	}
	if r.fellBack {
		b.proofFallback = true
	}
}

// ClassBudget is the per-category slice of Budget.
type ClassBudget struct {
	Simulated int64 `json:"simulated"`
	Saved     int64 `json:"saved"`
}

// Budget aggregates the decided-outcome engine's work over a campaign:
// cycles simulated versus window cycles skipped, by outcome class (SDCs
// settle fast; masked faults pay for their convergence proof).
type Budget struct {
	CyclesSimulated int64
	CyclesSaved     int64
	DecidedEarly    int64 // injections whose observe run exited early
	VerifyForked    int64 // verify runs resumed from a pre-fault fork
	ProofFallbacks  int64 // convergence proofs that failed (ran to completion)
	ByClass         map[Category]ClassBudget
}

// add folds one injection's record into the campaign totals.
func (b *Budget) add(r runBudget, cat Category) {
	b.CyclesSimulated += r.simulated
	b.CyclesSaved += r.saved
	if r.decidedEarly {
		b.DecidedEarly++
	}
	if r.verifyForked {
		b.VerifyForked++
	}
	if r.proofFallback {
		b.ProofFallbacks++
	}
	cb := b.ByClass[cat]
	cb.Simulated += r.simulated
	cb.Saved += r.saved
	b.ByClass[cat] = cb
}

// decide simulates the leg in probe-sized chunks until its classification
// facts are settled or the machine terminates, leaving in r.res the
// cumulative Result a single Run of the whole window would have returned.
// Verify legs (r.full) also wait for the backend to settle even when
// detected, since the full protocol's retry and machine-check machinery
// still decides their recovery facts.
func (d decodeBit) decide(e *engine, r *legRun) {
	cpu, window := r.cpu, e.cfg.WindowCycles
	// Everything decoded at or before taintHorizon may carry corrupted
	// signals: the injected event itself, plus the trace former's open
	// partial trace, which folds the corrupted signals into a trace event
	// dispatched up to MaxTraceLen-1 decode events later.
	taintHorizon := d.DecodeIndex + isa.MaxTraceLen
	cleanCommit := int64(-1)
	sweepHold := 0
	for {
		r.res = cpu.Run(max(min(window-cpu.CycleCount(), decideProbeCycles), 0))
		if r.res.Termination != pipeline.TermBudget || cpu.CycleCount() >= window {
			return
		}
		// Phase 0 — drain: wait until no structure can still hold corrupted
		// decode signals. A corrupted uop stalling forever keeps us here
		// until the watchdog terminates the run, which is the sound outcome.
		if cleanCommit < 0 {
			oldest, inFlight := cpu.OldestInFlightDecode()
			if cpu.DecodeEvents() > taintHorizon && (!inFlight || oldest > taintHorizon) {
				cleanCommit = cpu.CommittedInsts()
			}
			continue
		}
		// Phase 1 — one clean commit past the drain point settles the
		// sequential-PC check (a corrupted control commit can break the
		// expected-PC chain at exactly the next retirement) and gives the
		// golden cursor its final chance to diverge on taint-era state.
		if cpu.CommittedInsts() <= cleanCommit {
			continue
		}
		// Phase 2 — decide.
		det := cpu.Detector()
		diverged := r.cur.diverged
		// Observe runs that already detected need no quiescence: detection
		// is monotone and observe mode never retries. Undetected runs — and
		// every full-protocol run, whose retry/machine-check resolution is
		// still in flight — must show the backend can produce no further
		// event, and (ITR only) that no faulty signature is resident to
		// seed one later.
		if r.full || det.Stats().Mismatches == 0 {
			if !det.Settled(cleanCommit, diverged) {
				continue
			}
			if ck := cpu.Checker(); ck != nil {
				if sweepHold > 0 {
					sweepHold--
					continue
				}
				if faultyResident(ck, e.oracle) {
					sweepHold = faultySweepBackoff - 1
					continue
				}
			}
		}
		// A clean cursor must be backed by a proof that the machine
		// re-converged with the golden execution, so all future commits
		// match it; a failed proof simulates the rest of the window exactly.
		if !diverged && !convergedWithGolden(cpu, e.stream, r.from) {
			r.res = cpu.Run(max(window-cpu.CycleCount(), 0))
			r.fellBack = true
			return
		}
		r.early = true
		return
	}
}

// faultyResident reports whether any ITR cache line holds a signature that
// disagrees with the fault-free oracle — persistent corrupted evidence that
// a future faithful access could still trip over.
func faultyResident(ck *core.Checker, oracle *SigOracle) bool {
	faulty := false
	ck.Cache().Visit(func(ln *cache.Line) {
		if !faulty && ln.Value != oracle.TrueSig(ln.Key) {
			faulty = true
		}
	})
	return faulty
}

// convergedWithGolden proves the machine's committed architectural state
// equals the fault-free execution's at the current commit boundary: it forks
// the run's own (fault-free) start snapshot, replays the golden log up to the
// machine's commit count, and compares registers, PC and memory (untouched
// copy-on-write pages compare by pointer).
func convergedWithGolden(cpu *pipeline.CPU, stream *GoldenStream, snap *pipeline.Snapshot) bool {
	committed := cpu.CommittedInsts()
	if committed <= snap.Committed {
		return false
	}
	st, mem := snap.ArchFork()
	log := stream.ensure(int(committed) - 1)
	for i := snap.Committed; i < committed; i++ {
		st.ApplyRef(&log.at(int(i)).out)
	}
	machine := cpu.Committed()
	if st.R != machine.R || st.F != machine.F || st.PC != machine.PC {
		return false
	}
	mmem, ok := machine.Mem.(*isa.Memory)
	return ok && mem.Equal(mmem)
}
