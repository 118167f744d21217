package report

import (
	"strings"
	"testing"

	"itr/internal/core"
	"itr/internal/fault"
	"itr/internal/workload"
)

// Small budget keeps report tests quick; exactness of Table 1 at full budget
// is covered in workload's tests.
const testBudget = 300_000

func small(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestPopularityFigureShape(t *testing.T) {
	series, err := (&Engine{}).PopularityFigure(small(t, "bzip", "art"), 100, 1000, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 10 {
			t.Fatalf("%s: %d points, want 10", s.Name, len(s.Points))
		}
		prev := -1.0
		for _, p := range s.Points {
			if p.Y < prev {
				t.Fatalf("%s: CDF not monotone", s.Name)
			}
			prev = p.Y
		}
		if prev > 100.0001 {
			t.Fatalf("%s: CDF exceeds 100%%", s.Name)
		}
	}
}

func TestDistanceFigureShape(t *testing.T) {
	series, err := (&Engine{}).DistanceFigure(small(t, "bzip"), testBudget)
	if err != nil {
		t.Fatal(err)
	}
	pts := series[0].Points
	if len(pts) != 20 {
		t.Fatalf("points = %d, want 20 distance buckets", len(pts))
	}
	if pts[0].X != 500 || pts[19].X != 10000 {
		t.Fatalf("bucket edges: %v ... %v", pts[0].X, pts[19].X)
	}
	// bzip is dominated by tight loops: most mass inside the first bucket.
	if pts[0].Y < 80 {
		t.Fatalf("bzip first bucket %.1f%%, expected tight proximity", pts[0].Y)
	}
}

func TestTable1SmallBudgetUndercountsGcc(t *testing.T) {
	rows, err := (&Engine{}).Table1(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 || r.Measured > r.Paper {
			t.Fatalf("%s: measured %d outside (0, %d]", r.Benchmark, r.Measured, r.Paper)
		}
	}
}

func TestCoverageSweepGrid(t *testing.T) {
	profiles := small(t, "vpr")
	cells, err := (&Engine{}).CoverageSweep(profiles, core.DesignSpace(), testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 {
		t.Fatalf("cells = %d, want 18", len(cells))
	}
	for _, c := range cells {
		if c.Result.DetectionLoss > c.Result.RecoveryLoss+1e-9 {
			t.Fatalf("%s %s: detection loss exceeds recovery loss", c.Benchmark, c.Config)
		}
	}
}

func TestCoverageTableRendering(t *testing.T) {
	cells, err := (&Engine{}).CoverageSweep(small(t, "vpr"), core.DesignSpace(), testBudget)
	if err != nil {
		t.Fatal(err)
	}
	SortCellsByBenchmark(cells)
	tab := CoverageTable(cells, "detection")
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d, want one per associativity", tab.NumRows())
	}
	out := tab.String()
	for _, want := range []string{"vpr", "dm", "2-way", "fa", "256 sigs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHeadlineCoverageSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("headline sweeps all 16 benchmarks")
	}
	h, err := (&Engine{}).HeadlineCoverage(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgDetectionLoss <= 0 || h.AvgDetectionLoss > 10 {
		t.Fatalf("avg detection loss %.2f implausible", h.AvgDetectionLoss)
	}
	if h.MaxDetectionName != "vortex" {
		t.Errorf("max detection loss at %s, paper says vortex", h.MaxDetectionName)
	}
	if h.AvgRecoveryLoss < h.AvgDetectionLoss {
		t.Error("recovery loss must be at least detection loss")
	}
}

func TestFigure8SmallCampaign(t *testing.T) {
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = 5
	cfg.Experiment.WindowCycles = 30_000
	rows, err := (&Engine{}).Figure8(small(t, "art"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Result.Total != 5 {
		t.Fatalf("rows: %+v", rows)
	}
	out := Figure8Table(rows).String()
	if !strings.Contains(out, "art") || !strings.Contains(out, "Avg") {
		t.Fatalf("figure 8 table:\n%s", out)
	}
	if !strings.Contains(out, string(fault.ITRMask)) {
		t.Fatalf("missing category header:\n%s", out)
	}
}

func TestFigure9ShapeAndScaling(t *testing.T) {
	rows, err := (&Engine{}).Figure9(small(t, "bzip", "swim"), testBudget, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's central energy claim, per benchmark.
		if r.ITRSinglePort >= r.ICacheRedFetch {
			t.Fatalf("%s: ITR %.2f mJ not below redundant fetch %.2f mJ",
				r.Benchmark, r.ITRSinglePort, r.ICacheRedFetch)
		}
		if r.ITRDualPort <= r.ITRSinglePort {
			t.Fatalf("%s: dual port should cost more", r.Benchmark)
		}
		// At 200M instructions the redundant-fetch bar sits in the paper's
		// tens-of-mJ range.
		if r.ICacheRedFetch < 30 || r.ICacheRedFetch > 150 {
			t.Fatalf("%s: redundant fetch %.1f mJ outside the paper's range", r.Benchmark, r.ICacheRedFetch)
		}
	}
	// Unscaled rows are much smaller.
	raw, err := (&Engine{}).Figure9(small(t, "bzip"), testBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0].ICacheRedFetch >= rows[0].ICacheRedFetch {
		t.Fatal("unscaled energy should be far below 200M-scaled energy")
	}
	if tab := Figure9Table(rows); !strings.Contains(tab.String(), "bzip") {
		t.Fatal("figure 9 table render broken")
	}
}

func TestSortCellsByBenchmark(t *testing.T) {
	cells := []CoverageCell{
		{Benchmark: "vpr", Config: core.Config{Entries: 256, Assoc: 0}},
		{Benchmark: "bzip", Config: core.Config{Entries: 512, Assoc: 2}},
		{Benchmark: "bzip", Config: core.Config{Entries: 256, Assoc: 1}},
	}
	SortCellsByBenchmark(cells)
	if cells[0].Benchmark != "bzip" || cells[0].Config.Assoc != 1 {
		t.Fatalf("sort order: %+v", cells)
	}
	if cells[2].Benchmark != "vpr" {
		t.Fatalf("fa must sort last: %+v", cells)
	}
}
