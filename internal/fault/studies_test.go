package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"itr/internal/program"
	"itr/internal/workload"
)

// studyProgram returns the named study subject: the compact fault test loop,
// or a synthetic benchmark from the workload suite.
func studyProgram(t *testing.T, name string) *program.Program {
	t.Helper()
	if name == "fault-test" {
		return testProgram(t)
	}
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStudyResultsPinned pins every fault study's aggregate result on the
// fault test loop and on gcc at a 20k-cycle window, for two seeds. The
// figures were recorded from the cold serial study runners (one fresh
// machine and one lockstep golden model per injection), so any change to
// how the studies resume, schedule or classify injections must leave them
// unchanged.
func TestStudyResultsPinned(t *testing.T) {
	cases := []struct {
		prog             string
		seed             uint64
		pc               PCFaultResult
		rename           RenameCampaignResult
		cacheNo, cacheOn CacheFaultResult
	}{
		{"fault-test", 0x17b,
			PCFaultResult{Total: 24, Counts: map[PCOutcome]int{"itr": 3, "spc": 21}},
			RenameCampaignResult{Total: 8, SDCWithoutExtension: 4, MaskedWithout: 4, DetectedWithExtension: 7, RecoveredWithExtension: 7},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"false-machine-check": 11, "masked": 1}},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"masked": 1, "parity-repaired": 11}}},
		{"fault-test", 0x7,
			PCFaultResult{Total: 24, Counts: map[PCOutcome]int{"itr": 12, "spc": 12}},
			RenameCampaignResult{Total: 8, SDCWithoutExtension: 5, MaskedWithout: 3, DetectedWithExtension: 7, RecoveredWithExtension: 7},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"false-machine-check": 12}},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"parity-repaired": 12}}},
		{"gcc", 0x17b,
			PCFaultResult{Total: 24, Counts: map[PCOutcome]int{"itr": 10, "spc": 14}},
			RenameCampaignResult{Total: 8, SDCWithoutExtension: 4, MaskedWithout: 4, DetectedWithExtension: 5, RecoveredWithExtension: 5, SDCWithExtension: 1},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"masked": 12}},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"masked": 12}}},
		{"gcc", 0x7,
			PCFaultResult{Total: 24, Counts: map[PCOutcome]int{"itr": 11, "spc": 13}},
			RenameCampaignResult{Total: 8, SDCWithoutExtension: 4, MaskedWithout: 4, DetectedWithExtension: 6, RecoveredWithExtension: 6, SDCWithExtension: 1},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"masked": 12}},
			CacheFaultResult{Total: 12, Counts: map[CacheFaultOutcome]int{"masked": 12}}},
	}
	for _, c := range cases {
		p := studyProgram(t, c.prog)
		cfg := quickConfig()
		pc, err := RunPCFaultCampaign(p, cfg, c.pc.Total, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pc, c.pc) {
			t.Errorf("%s/%#x pc study: %+v, want %+v", c.prog, c.seed, pc, c.pc)
		}
		rn, err := RunRenameCampaign(p, cfg, c.rename.Total, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if rn != c.rename {
			t.Errorf("%s/%#x rename study: %+v, want %+v", c.prog, c.seed, rn, c.rename)
		}
		for _, want := range []struct {
			parity bool
			res    CacheFaultResult
		}{{false, c.cacheNo}, {true, c.cacheOn}} {
			got, err := RunCacheFaultCampaign(p, cfg, want.parity, want.res.Total, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.res) {
				t.Errorf("%s/%#x cache study (parity %v): %+v, want %+v", c.prog, c.seed, want.parity, got, want.res)
			}
		}
	}
}

// TestStudyInjectionsMatchColdOracles checks every PC, rename and cache
// injection the engine runs against its cold oracle (oracles_test.go): a
// fresh machine simulated from cycle 0 with the lockstep golden model. The
// engine must reproduce each verdict whether its legs start cold, resume
// from a dense snapshot series, or from the default one. Sampling does not
// depend on the interval, so each oracle verdict is computed once.
func TestStudyInjectionsMatchColdOracles(t *testing.T) {
	for _, prog := range []string{"fault-test", "gcc"} {
		p := studyProgram(t, prog)
		cfg := quickConfig()
		pcWant := map[fetchPC]PCOutcome{}
		renameWant := map[renameIndex]renameVerdict{}
		cacheWant := map[[2]any]cacheVerdict{}
		for _, interval := range []int64{-1, 512, 0} {
			cfg.SnapshotInterval = interval
			name := fmt.Sprintf("%s/interval %d", prog, interval)

			pcs, outs, err := runPCStudy(p, cfg, 10, 0x17b)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range pcs {
				want, ok := pcWant[f]
				if !ok {
					if want, err = RunPCFault(p, cfg, f.cycle, f.bit); err != nil {
						t.Fatal(err)
					}
					pcWant[f] = want
				}
				if outs[i] != want {
					t.Errorf("%s: pc injection %d %+v = %s, cold oracle %s", name, i, f, outs[i], want)
				}
			}

			renames, verdicts, err := runRenameStudy(p, cfg, 6, 0x17b)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range renames {
				want, ok := renameWant[f]
				if !ok {
					want.withoutSDC, want.frontendDetected, want.detected, want.recovered, want.withSDC, err =
						RunRenameFault(p, cfg, RenameInjection(f))
					if err != nil {
						t.Fatal(err)
					}
					renameWant[f] = want
				}
				if verdicts[i] != want {
					t.Errorf("%s: rename injection %d %+v = %+v, cold oracle %+v", name, i, f, verdicts[i], want)
				}
			}

			for _, parity := range []bool{false, true} {
				lines, verdicts, err := runCacheStudy(p, cfg, parity, 6, 0x17b)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range lines {
					key := [2]any{f, parity}
					want, ok := cacheWant[key]
					if !ok {
						want.out, want.sdc, err = RunCacheFault(p, cfg, parity, f.warm, f.pick, f.bit)
						if err != nil {
							t.Fatal(err)
						}
						cacheWant[key] = want
					}
					if verdicts[i] != want {
						t.Errorf("%s: cache injection %d %+v (parity %v) = %+v, cold oracle %+v",
							name, i, f, parity, verdicts[i], want)
					}
				}
			}
		}
	}
}

// TestStudyErrorNamesInjection forces a cache-study error — a program that
// halts before any ITR line is resident — and checks the pool's error names
// the program, seed and injection.
func TestStudyErrorNamesInjection(t *testing.T) {
	b := program.NewBuilder("halt-only")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCacheFaultCampaign(p, quickConfig(), false, 2, 0x17b)
	if err == nil {
		t.Fatal("cache study on a program with no resident lines succeeded")
	}
	for _, want := range []string{"halt-only", "seed 0x17b", "injection 0", "warm:5000", "no resident lines"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
