package report

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"itr/internal/fault"
	"itr/internal/workload"
)

// TestFigure8PipelineMatchesSerialCampaigns: running the next benchmark's
// fault-free prefix beside the current pool changes no result.
func TestFigure8PipelineMatchesSerialCampaigns(t *testing.T) {
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = 8
	cfg.Experiment.WindowCycles = 20_000
	profiles := small(t, "art", "gcc", "swim")
	rows, err := (&Engine{}).Figure8(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fault.RunCampaign(p.Name, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].Benchmark != p.Name || !reflect.DeepEqual(rows[i].Result.Details, want.Details) {
			t.Fatalf("row %d (%s) differs from its serial campaign", i, rows[i].Benchmark)
		}
	}
}

// TestFigure8PipelineError: a prefix that fails while the previous
// benchmark's pool drains is reported after that benchmark completes, the
// lowest-indexed failure wins, and no goroutine outlives the call.
func TestFigure8PipelineError(t *testing.T) {
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = 4
	cfg.Experiment.WindowCycles = 20_000
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	var items []string
	e := &Engine{OnItem: func(label string, _ time.Duration) {
		mu.Lock()
		items = append(items, label)
		mu.Unlock()
	}}
	bad := func(name string) workload.Profile { return workload.Profile{Name: name} } // no components: Build fails
	for _, c := range []struct {
		profiles []workload.Profile
		items    []string
		err      string
	}{
		{append(small(t, "art"), bad("broken-1"), bad("broken-2")), []string{"art", "broken-1"}, "broken-1"},
		{[]workload.Profile{bad("broken-0"), small(t, "art")[0]}, []string{"broken-0"}, "broken-0"},
	} {
		items = nil
		rows, err := e.Figure8(c.profiles, cfg)
		if err == nil || rows != nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("rows %v, error %v; want the %s failure", rows, err, c.err)
		}
		if !reflect.DeepEqual(items, c.items) {
			t.Fatalf("completed items %v, want %v", items, c.items)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines outlive Figure8 (%d before)", n, before)
	}
}
