package fault

import (
	"reflect"
	"testing"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// TestCampaignSnapshotFastPathBitIdentical is the tentpole's correctness
// bar: for a fixed seed, the snapshot fast-forward campaign must produce
// Detail slices bit-identical to the cold path — same categories, same
// observe- and verify-run facts, for every injection — so the Figure 8
// percentages are unchanged by the optimization.
func TestCampaignSnapshotFastPathBitIdentical(t *testing.T) {
	variants := []struct {
		name     string
		interval int64
		ckpt     bool
	}{
		{"default-interval", 0, false},
		{"fine-interval", 2_000, false},
		{"checkpoint-verify", 2_000, true}, // verify runs must fall back cold
	}
	p := testProgram(t)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			base := DefaultCampaignConfig()
			base.Faults = 50
			base.Workers = 4
			base.Experiment = quickConfig()
			base.Experiment.Checkpoint = v.ckpt
			// Pin the exact (run-to-completion) path: this test is about
			// snapshot-resume bit-identity, and only that path promises
			// byte-identical Detail payloads. The decided-outcome fast
			// path's classification identity has its own property test.
			base.Experiment.Exact = true

			cold := base
			cold.Experiment.SnapshotInterval = -1
			warm := base
			warm.Experiment.SnapshotInterval = v.interval

			cres, err := RunCampaign("cold", p, cold)
			if err != nil {
				t.Fatal(err)
			}
			wres, err := RunCampaign("warm", p, warm)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(cres.Details, wres.Details) {
				for i := range cres.Details {
					if cres.Details[i] != wres.Details[i] {
						t.Fatalf("Detail %d differs:\ncold %+v\nwarm %+v",
							i, cres.Details[i], wres.Details[i])
					}
				}
				t.Fatal("Detail slices differ")
			}
			if !reflect.DeepEqual(cres.Counts, wres.Counts) {
				t.Fatalf("category counts differ:\ncold %+v\nwarm %+v", cres.Counts, wres.Counts)
			}
			if cres.Snapshots != 0 || cres.SnapshotPages != 0 {
				t.Fatalf("cold path reported snapshots: %d (%d pages)", cres.Snapshots, cres.SnapshotPages)
			}
			if wres.Snapshots == 0 || wres.SnapshotPages == 0 {
				t.Fatalf("fast path took no snapshots: %d (%d pages)", wres.Snapshots, wres.SnapshotPages)
			}
			// COW sharing: the series references at least as many pages as
			// it distinctly holds, and every retained snapshot past the
			// first shares its predecessor's unchanged pages.
			if wres.SnapshotOwnedPages == 0 || wres.SnapshotOwnedPages > wres.SnapshotPages {
				t.Fatalf("snapshot footprint inconsistent: %d referenced, %d distinct",
					wres.SnapshotPages, wres.SnapshotOwnedPages)
			}
			if wres.Snapshots > 1 && wres.SnapshotOwnedPages == wres.SnapshotPages {
				t.Fatalf("%d snapshots share no pages (%d referenced, %d distinct)",
					wres.Snapshots, wres.SnapshotPages, wres.SnapshotOwnedPages)
			}
		})
	}
}

// TestGoldenStreamMatchesLiveGolden: a cursor over the precomputed stream
// reaches the same divergence verdicts as the live lockstep golden model
// (oracles_test.go), including across checkpoint rollbacks.
func TestGoldenStreamMatchesLiveGolden(t *testing.T) {
	p := testProgram(t)
	s := NewGoldenStream(p)

	// Replay the stream's own entries through both observers: no divergence.
	g := newGolden(p)
	cur := s.cursor(0)
	view := s.ensure(499)
	for i := 0; i < 500; i++ {
		e := view.at(i)
		g.observe(e.pc, &e.out)
		cur.observe(e.pc, &e.out)
	}
	if g.diverged || cur.diverged {
		t.Fatalf("fault-free replay diverged: live=%v cursor=%v", g.diverged, cur.diverged)
	}

	// A wrong PC diverges both, stickily.
	g2 := newGolden(p)
	cur2 := s.cursor(0)
	e := view.at(0)
	g2.observe(e.pc+1, &e.out)
	cur2.observe(e.pc+1, &e.out)
	if !g2.diverged || !cur2.diverged {
		t.Fatalf("PC mismatch not flagged: live=%v cursor=%v", g2.diverged, cur2.diverged)
	}

	// A corrupted outcome diverges the cursor mid-stream.
	cur3 := s.cursor(100)
	bad := view.at(100).out
	bad.NextPC ^= 1
	cur3.observe(view.at(100).pc, &bad)
	if !cur3.diverged {
		t.Fatal("outcome mismatch not flagged by seeked cursor")
	}

	// Through a Checkpoint: true verify run: a fault on a trace's first
	// instance corrupts committed state, and the machine rolls back to its
	// last checkpoint. The cursor must rewind with the machine exactly as the
	// live model restores its reference state, commit by commit.
	mp := missFaultProgram(t)
	cfg := quickConfig()
	cfg.Checkpoint = true
	pcfg := cfg.pipelineConfig(core.ModeFull)
	pcfg.CheckpointEnabled = true
	pcfg.CheckpointIntervalCycles = 512
	cpu, err := pipeline.New(mp, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	live, cur4 := newGolden(mp), NewGoldenStream(mp).cursor(0)
	commits, disagreements, sawDiverged := 0, 0, false
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		live.observe(pc, o)
		cur4.observe(pc, o)
		commits++
		sawDiverged = sawDiverged || live.diverged
		if live.diverged != cur4.diverged {
			disagreements++
		}
	})
	cpu.SetCheckpointObserver(func(taken bool) {
		live.checkpoint(taken)
		cur4.checkpoint(taken)
	})
	late := firstOp(mp, isa.OpAdd)
	fired := false
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		if !fired && pc == late && !wrongPath {
			fired = true
			return d.FlipBit(36) // rdst: the add writes the wrong register
		}
		return d
	})
	res := cpu.Run(4_000_000)
	if res.CheckpointRollbacks == 0 || !sawDiverged {
		t.Fatalf("no rollback of a corrupted commit to compare through (rollbacks %d, diverged %v)",
			res.CheckpointRollbacks, sawDiverged)
	}
	if disagreements > 0 || live.diverged || cur4.diverged {
		t.Fatalf("cursor and live model disagreed on %d of %d commits (final live=%v cursor=%v)",
			disagreements, commits, live.diverged, cur4.diverged)
	}
}

// missFaultProgram is structured so a fault can land on a trace's first
// dynamic instance: its "late" block first runs long after checkpoints
// exist, so a corrupted first instance installs a faulty signature that only
// a checkpoint rollback can recover from.
func missFaultProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("missfault")
	b.OpImm(isa.OpAddi, 1, 0, 400)
	b.OpImm(isa.OpAddi, 4, 0, 0x1000)
	b.Label("outer")
	b.OpImm(isa.OpAddi, 2, 0, 8)
	b.Label("warm")
	b.OpImm(isa.OpAddi, 3, 3, 1)
	b.Store(isa.OpSd, 3, 4, 0)
	b.OpImm(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "warm")
	b.OpImm(isa.OpAddi, 5, 0, 200)
	b.Branch(isa.OpBlt, 1, 5, "late")
	b.Jump("skip_late")
	b.Label("late")
	b.Op(isa.OpAdd, 6, 6, 3)
	b.Op(isa.OpXor, 7, 7, 6)
	b.Store(isa.OpSd, 7, 4, 16)
	b.OpImm(isa.OpAddi, 8, 8, 3)
	b.Branch(isa.OpBeq, 0, 0, "skip_late")
	b.Label("skip_late")
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "outer")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// firstOp returns the PC of the first instruction with opcode op.
func firstOp(p *program.Program, op isa.Opcode) uint64 {
	for pc, inst := range p.Insts {
		if inst.Op == op {
			return uint64(pc)
		}
	}
	return 0
}

// TestNearestSnapshotIdx pins the strictly-before selection rule: the chosen
// snapshot must predate the injected decode event (equality is too late —
// that decode already happened in the snapshot), or the run starts cold.
func TestNearestSnapshotIdx(t *testing.T) {
	snaps := []*pipeline.Snapshot{
		{DecodeEvents: 100},
		{DecodeEvents: 200},
		{DecodeEvents: 300},
	}
	cases := []struct {
		decodeIndex int64
		want        int
	}{
		{50, -1},  // before every snapshot: cold
		{100, -1}, // equality is too late
		{101, 0},  // just past the first
		{200, 0},  // equality with the second: first still applies
		{250, 1},  //
		{300, 1},  // equality with the last
		{9999, 2}, // far past the last
	}
	for _, c := range cases {
		if got := nearest(snaps, decodeBit{DecodeIndex: c.decodeIndex}); got != c.want {
			t.Errorf("nearest(%d) = %d, want %d", c.decodeIndex, got, c.want)
		}
	}
	if got := nearest(nil, decodeBit{DecodeIndex: 10}); got != -1 {
		t.Fatalf("empty slice: got %d, want -1", got)
	}
}
