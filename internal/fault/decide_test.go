package fault

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
)

// normalizeDecided zeroes the Detail facts the decided-outcome engine is
// documented to leave unsettled on early exit because no classification or
// recovery verdict reads them: Halted (a run that stops mid-window never
// sees a later halt) and FaultyResident on detected runs (the sweep happens
// at exit, not window end, and classify ignores it once Detected).
func normalizeDecided(d Detail) Detail {
	d.Halted = false
	if d.Detected {
		d.FaultyResident = false
	}
	return d
}

// TestDecidedClassificationMatchesExact is the decided-outcome engine's
// correctness bar: for fixed seeds, every injection's classification — and
// every fact classification or recovery accounting reads — must be identical
// between the fast path and the exact run-to-completion path, across all
// three detector backends and several worker widths.
func TestDecidedClassificationMatchesExact(t *testing.T) {
	p := testProgram(t)
	for _, backend := range []string{"itr", "reptfd", "dme"} {
		for _, workers := range []int{1, 4} {
			for _, seed := range []uint64{0x17b, 0xdead} {
				base := DefaultCampaignConfig()
				base.Faults = 40
				base.Seed = seed
				base.Workers = workers
				base.Experiment = quickConfig()
				base.Experiment.Pipeline.Detector = backend

				exact := base
				exact.Experiment.Exact = true
				fast := base

				eres, err := RunCampaign("exact", p, exact)
				if err != nil {
					t.Fatal(err)
				}
				fres, err := RunCampaign("fast", p, fast)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fres.Counts, eres.Counts) {
					t.Errorf("%s/w%d/seed %#x: counts %v != exact %v",
						backend, workers, seed, fres.Counts, eres.Counts)
				}
				if fres.RecoveryAttempted != eres.RecoveryAttempted ||
					fres.RecoveryConfirmed != eres.RecoveryConfirmed {
					t.Errorf("%s/w%d/seed %#x: recovery %d/%d != exact %d/%d",
						backend, workers, seed,
						fres.RecoveryConfirmed, fres.RecoveryAttempted,
						eres.RecoveryConfirmed, eres.RecoveryAttempted)
				}
				for i := range eres.Details {
					got := normalizeDecided(fres.Details[i])
					want := normalizeDecided(eres.Details[i])
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/w%d/seed %#x: injection %d\n fast  %+v\n exact %+v",
							backend, workers, seed, i, got, want)
					}
				}
				if eres.Budget.CyclesSaved != 0 {
					t.Errorf("%s/w%d/seed %#x: exact path reported %d cycles saved",
						backend, workers, seed, eres.Budget.CyclesSaved)
				}
			}
		}
	}
}

// TestDecidedBudgetAccounting checks that the fast path actually decides
// runs early on a workload dominated by quickly-settling faults, and that
// the budget's class breakdown is consistent with its totals.
func TestDecidedBudgetAccounting(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultCampaignConfig()
	cfg.Faults = 40
	cfg.Experiment = quickConfig()
	var prog Progress
	cfg.Progress = &prog
	res, err := RunCampaign("budget", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Budget
	if b.DecidedEarly == 0 {
		t.Error("no injection decided early; the fast path did not engage")
	}
	if b.CyclesSaved <= 0 || b.CyclesSimulated <= 0 {
		t.Errorf("degenerate budget: simulated %d, saved %d", b.CyclesSimulated, b.CyclesSaved)
	}
	var sim, saved int64
	for _, cb := range b.ByClass {
		sim += cb.Simulated
		saved += cb.Saved
	}
	if sim != b.CyclesSimulated || saved != b.CyclesSaved {
		t.Errorf("class breakdown (%d, %d) disagrees with totals (%d, %d)",
			sim, saved, b.CyclesSimulated, b.CyclesSaved)
	}
	if prog.CyclesSimulated.Load() != b.CyclesSimulated || prog.CyclesSaved.Load() != b.CyclesSaved ||
		prog.VerifyCyclesSimulated.Load() != b.VerifyCyclesSimulated {
		t.Errorf("progress counters (%d, %d, %d) disagree with budget (%d, %d, %d)",
			prog.CyclesSimulated.Load(), prog.CyclesSaved.Load(), prog.VerifyCyclesSimulated.Load(),
			b.CyclesSimulated, b.CyclesSaved, b.VerifyCyclesSimulated)
	}

	if b.VerifyCyclesSimulated <= 0 || b.VerifyCyclesSimulated >= b.CyclesSimulated {
		t.Errorf("verify share %d of %d simulated cycles", b.VerifyCyclesSimulated, b.CyclesSimulated)
	}

	// On the exact path observe legs do not depend on verification, so the
	// verify share is exactly what the campaign without verify legs does
	// not simulate.
	cfg.Progress = nil
	cfg.Experiment.Exact = true
	exact, err := RunCampaign("budget", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Experiment.Verify = false
	observeOnly, err := RunCampaign("budget", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, o := exact.Budget, observeOnly.Budget
	if e.VerifyCyclesSimulated <= 0 || o.VerifyCyclesSimulated != 0 ||
		e.CyclesSimulated-e.VerifyCyclesSimulated != o.CyclesSimulated {
		t.Errorf("exact path: verify share %d of %d simulated cycles; without verify legs %d of %d",
			e.VerifyCyclesSimulated, e.CyclesSimulated, o.VerifyCyclesSimulated, o.CyclesSimulated)
	}

	var merged Budget
	merged.Merge(b)
	merged.Merge(e)
	if merged.CyclesSimulated != b.CyclesSimulated+e.CyclesSimulated ||
		merged.VerifyCyclesSimulated != b.VerifyCyclesSimulated+e.VerifyCyclesSimulated ||
		merged.CyclesSaved != b.CyclesSaved || merged.DecidedEarly != b.DecidedEarly ||
		merged.ByClass[ITRMask].Simulated != b.ByClass[ITRMask].Simulated+e.ByClass[ITRMask].Simulated {
		t.Errorf("Merge: %+v from %+v and %+v", merged, b, e)
	}

	if res.SnapshotStateBytes <= 0 || res.GoldenLogBytes < goldenChunkBytes {
		t.Errorf("footprint: %d B snapshot state, %d B golden log", res.SnapshotStateBytes, res.GoldenLogBytes)
	}
}

// TestSnapshotStateBytes checks the snapshot footprint measure: a snapshot
// holds at least its ITR cache lines, a snapshot listed twice counts once,
// and two captures of one machine each hold their own copies.
func TestSnapshotStateBytes(t *testing.T) {
	cfg := quickConfig()
	cpu, err := pipeline.New(testProgram(t), cfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(2000)
	s1 := cpu.Snapshot()
	cpu.Run(2000)
	s2 := cpu.Snapshot()
	one := snapshotStateBytes([]*pipeline.Snapshot{s1})
	if lines := int64(cfg.ITR.Entries) * int64(unsafe.Sizeof(cache.Line{})); one < lines {
		t.Fatalf("snapshot holds %d B, less than its %d B of ITR cache lines", one, lines)
	}
	if twice := snapshotStateBytes([]*pipeline.Snapshot{s1, s1}); twice != one {
		t.Errorf("one snapshot listed twice: %d B, alone %d B", twice, one)
	}
	if two := snapshotStateBytes([]*pipeline.Snapshot{s1, s2}); two <= one || two > 2*one+one/10 {
		t.Errorf("two snapshots: %d B, one alone %d B", two, one)
	}
}

// TestConvergenceProof exercises convergedWithGolden directly: a fault-free
// machine must prove convergence at any commit boundary, and any single
// divergence in registers, PC, or memory — including on a page the golden
// fork never touched — must defeat the proof.
func TestConvergenceProof(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	cpu, err := pipeline.New(p, cfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(2000)
	snap := cpu.Snapshot()
	stream := NewGoldenStream(p)
	cpu.Run(2000)
	if cpu.CommittedInsts() <= snap.Committed {
		t.Fatal("machine made no progress past the snapshot")
	}
	if !convergedWithGolden(cpu, stream, snap) {
		t.Fatal("fault-free machine failed its own convergence proof")
	}

	arch := cpu.Committed()
	arch.R[5] ^= 1
	if convergedWithGolden(cpu, stream, snap) {
		t.Error("proof survived a corrupted integer register")
	}
	arch.R[5] ^= 1

	pc := arch.PC
	arch.PC ^= 4
	if convergedWithGolden(cpu, stream, snap) {
		t.Error("proof survived a corrupted PC")
	}
	arch.PC = pc

	// A store to a page neither execution dirtied: the machine-side memory
	// gains a page the golden fork lacks, which the one-sided page compare
	// must catch.
	mem, ok := arch.Mem.(*isa.Memory)
	if !ok {
		t.Fatal("committed state is not backed by isa.Memory")
	}
	const farAddr = 0x40_0000
	mem.Store(farAddr, 8, 0xbad)
	if convergedWithGolden(cpu, stream, snap) {
		t.Error("proof survived a corrupted memory word")
	}
	mem.Store(farAddr, 8, 0)
	if !convergedWithGolden(cpu, stream, snap) {
		t.Error("proof failed after corruption was reverted to zero")
	}
}

// TestMemoryEqual pins the generation-tag page diff underneath the
// convergence proof: snapshot-shared pages compare by pointer, diverged
// copies by content, and pages present on one side only compare against
// zeros (copy-on-write never materializes untouched pages).
func TestMemoryEqual(t *testing.T) {
	a := isa.NewMemory()
	a.Store(0x1000, 8, 7)
	a.Store(0x9000, 8, 9)

	b := isa.NewMemory()
	b.CopyFrom(a)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("copy-on-write clone not equal to source")
	}

	// Same content written independently: compares by data, not pointer.
	c := isa.NewMemory()
	c.Store(0x1000, 8, 7)
	c.Store(0x9000, 8, 9)
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("identical contents in distinct pages not equal")
	}

	// Divergent word.
	c.Store(0x9000, 8, 10)
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("divergent contents reported equal")
	}

	// One-sided page holding only zeros is equal to an absent page...
	d := isa.NewMemory()
	d.CopyFrom(a)
	d.Store(0x20_000, 8, 1)
	d.Store(0x20_000, 8, 0)
	if !a.Equal(d) || !d.Equal(a) {
		t.Fatal("all-zero one-sided page broke equality")
	}
	// ...and a nonzero one-sided page is not.
	d.Store(0x20_000, 8, 2)
	if a.Equal(d) || d.Equal(a) {
		t.Fatal("nonzero one-sided page reported equal")
	}
}

// TestObserveStopGridPinned pins a digest of every Detail of one small
// verified ITR campaign, FaultyResident and Halted included. A detected
// observe leg samples FaultyResident where it stops, so the digest pins the
// observe legs' 512-cycle probe grid: on parser with a 64-entry ITR cache,
// faulty signatures are evicted often enough that stopping observe legs on a
// finer grain changes several injections' FaultyResident. Verify legs stop
// on their own grain without changing any recorded fact. The digest was
// recorded when every leg still probed every 512 cycles.
func TestObserveStopGridPinned(t *testing.T) {
	const want = "618761731a490f3293c5e412966cc8e192737c39029ec634153146578dbba0fe"
	cfg := DefaultCampaignConfig()
	cfg.Faults = 60
	cfg.Seed = 3
	cfg.Workers = 2
	cfg.Experiment = quickConfig()
	cfg.Experiment.ITR.Entries = 64
	res, err := RunCampaign("parser", studyProgram(t, "parser"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res.Details)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Fatalf("Details digest %s, want %s", got, want)
	}
}
