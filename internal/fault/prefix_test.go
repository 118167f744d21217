package fault

import (
	"math"
	"reflect"
	"testing"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// TestPilotExtensionMatchesFullCapture: a pilot cut at a capture horizon and
// extended to the window end holds exactly the snapshot series of a pilot
// that captured throughout, and each pair of snapshots restores into
// machines that run identically.
func TestPilotExtensionMatchesFullCapture(t *testing.T) {
	p := studyProgram(t, "gcc")
	cfg := quickConfig()
	cfg.SnapshotInterval = 1024
	pcfg := cfg.pipelineConfig(core.ModeObserve)
	window := cfg.WindowCycles

	full, fullRes, err := newEngine(p, cfg, 0).pilot(pcfg, window, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.snaps) < 10 {
		t.Fatalf("full capture took %d snapshots", len(full.snaps))
	}
	for _, horizon := range []int64{0, window / 3} {
		e := newEngine(p, cfg, 0)
		src, res, err := e.pilot(pcfg, window, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if res != fullRes {
			t.Fatalf("horizon %d: pilot Result %+v, full capture %+v", horizon, res, fullRes)
		}
		if err := e.extend(src, decodeBit{DecodeIndex: math.MaxInt64}); err != nil {
			t.Fatal(err)
		}
		if len(src.snaps) != len(full.snaps) {
			t.Fatalf("horizon %d: %d snapshots, full capture %d", horizon, len(src.snaps), len(full.snaps))
		}
		if e.prefix.pilotSnaps+e.prefix.extensionSnaps != len(src.snaps) || (horizon == 0) != (e.prefix.pilotSnaps == 0) {
			t.Fatalf("horizon %d: %d pilot + %d extension snapshots of %d", horizon, e.prefix.pilotSnaps, e.prefix.extensionSnaps, len(src.snaps))
		}
		for i, s := range src.snaps {
			f := full.snaps[i]
			if s.Cycle != f.Cycle || s.DecodeEvents != f.DecodeEvents || s.Committed != f.Committed {
				t.Fatalf("horizon %d: snapshot %d at (%d, %d, %d), full capture (%d, %d, %d)", horizon, i,
					s.Cycle, s.DecodeEvents, s.Committed, f.Cycle, f.DecodeEvents, f.Committed)
			}
		}
		for _, i := range []int{0, len(src.snaps) / 2, len(src.snaps) - 1} {
			a, b := restoreRun(t, p, pcfg, src.snaps[i]), restoreRun(t, p, pcfg, full.snaps[i])
			if a.res != b.res || a.arch.R != b.arch.R || a.arch.F != b.arch.F || a.arch.PC != b.arch.PC || !a.mem.Equal(b.mem) {
				t.Fatalf("horizon %d: machines restored from snapshot %d diverge: %+v vs %+v", horizon, i, a.res, b.res)
			}
		}
	}
}

type restored struct {
	res  pipeline.Result
	arch isa.ArchState
	mem  *isa.Memory
}

// restoreRun restores s into a fresh machine and runs it 3000 cycles.
func restoreRun(t *testing.T, p *program.Program, pcfg pipeline.Config, s *pipeline.Snapshot) restored {
	t.Helper()
	cpu, err := pipeline.New(p, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Restore(s); err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(3000)
	arch := cpu.Committed()
	return restored{res: res, arch: *arch, mem: arch.Mem.(*isa.Memory)}
}

// TestCampaignHorizonInvariant: where the pilot stops capturing changes
// nothing but who captured the snapshots. A decided leg's probe grid is
// counted from its resume point, so equal Details mean equal resume points.
func TestCampaignHorizonInvariant(t *testing.T) {
	p := studyProgram(t, "gcc")
	cfg := DefaultCampaignConfig()
	cfg.Faults = 40
	cfg.Workers = 2
	cfg.Experiment = quickConfig()
	want, err := RunCampaign("gcc", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCampaign("gcc", p, cfg, cfg.Experiment.WindowCycles/8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Details, want.Details) {
		t.Fatal("Details differ with the capture horizon at an eighth of the window")
	}
	if _, err := c.Run(); err == nil {
		t.Fatal("a campaign ran twice")
	}
	if got.Snapshots != want.Snapshots || got.SnapshotStateBytes != want.SnapshotStateBytes {
		t.Fatalf("retained %d snapshots (%d B), want %d (%d B)", got.Snapshots, got.SnapshotStateBytes, want.Snapshots, want.SnapshotStateBytes)
	}
	if got.ExtensionSnapshots == 0 || got.ExtensionCycles == 0 || got.PilotSnapshots >= want.PilotSnapshots {
		t.Fatalf("extension captured %d snapshots in %d cycles; pilot %d, default pilot %d",
			got.ExtensionSnapshots, got.ExtensionCycles, got.PilotSnapshots, want.PilotSnapshots)
	}
	if got.PilotCycles != cfg.Experiment.WindowCycles || want.PilotNanos <= 0 {
		t.Fatalf("pilot accounting: %d cycles, %d ns", got.PilotCycles, want.PilotNanos)
	}
}

// TestResumeOrderedReleaseMatchesRunOne: the pool releases snapshots with
// their last injection and golden-log chunks behind its oldest unfinished
// one, over a window of several chunks, and every injection still equals
// its cold reference run. Injections share snapshots, so a snapshot or
// chunk released early fails a later leg.
func TestResumeOrderedReleaseMatchesRunOne(t *testing.T) {
	p := studyProgram(t, "gcc")
	cfg := DefaultCampaignConfig()
	cfg.Faults = 16
	cfg.Experiment = quickConfig()
	cfg.Experiment.SnapshotInterval = 4096
	cfg.Experiment.Exact = true
	oracle := NewSigOracle(p)
	want := make([]Detail, cfg.Faults)
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		res, err := RunCampaign("gcc", p, cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if res.GoldenLogBytes < 4*goldenChunkBytes || res.Snapshots >= cfg.Faults {
			t.Fatalf("%d workers: %d B of golden log, %d snapshots for %d faults", workers, res.GoldenLogBytes, res.Snapshots, cfg.Faults)
		}
		for i, d := range res.Details {
			if want[i].Category == "" {
				if want[i], err = RunOne(p, oracle, cfg.Experiment, d.Injection); err != nil {
					t.Fatal(err)
				}
			}
			if d != want[i] {
				t.Errorf("%d workers: injection %d\n got %+v\nwant %+v", workers, i, d, want[i])
			}
		}
	}

	// Decided legs stop near their fault, so over a long window the log is
	// released behind them as the pool drains, at any width.
	cfg.Experiment.Exact = false
	cfg.Experiment.WindowCycles = 60_000
	var first CampaignResult
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		res, err := RunCampaign("gcc", p, cfg)
		if err != nil {
			t.Fatalf("decided, %d workers: %v", workers, err)
		}
		if res.GoldenPeakBytes >= res.GoldenLogBytes {
			t.Fatalf("decided, %d workers: peak %d B of %d B built", workers, res.GoldenPeakBytes, res.GoldenLogBytes)
		}
		if workers == 1 {
			first = res
		} else if !reflect.DeepEqual(res.Details, first.Details) {
			t.Fatal("decided Details differ between 1 and 3 workers")
		}
	}

	// A leg resuming exactly at a chunk boundary reads its first PC from the
	// chunk below, so that chunk stays.
	s, ref := NewGoldenStream(p), NewGoldenStream(p)
	s.ensure(3*goldenChunk - 1)
	s.release(2 * goldenChunk)
	if entries, _, peak := s.footprint(); entries != 3*goldenChunk || peak != 3*goldenChunkBytes {
		t.Fatalf("footprint: %d entries, peak %d B", entries, peak)
	}
	cur := s.cursor(2 * goldenChunk)
	v := ref.ensure(2 * goldenChunk)
	var o isa.Outcome
	cols, j := v.col(2 * goldenChunk)
	cols.outcome(j, &o)
	cur.observe(v.pc(2*goldenChunk), &o)
	if cur.diverged || cur.idx != 2*goldenChunk+1 {
		t.Fatal("cursor at the release floor diverged on the golden outcome")
	}
}
