package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

const testSeed = 7

func tinyRun(t *testing.T, w *workloadDef, traced bool) childReport {
	t.Helper()
	rep, err := runChild(w, testSeed, tinySize, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
	}
	return rep
}

// selfRefs records a run's own digests as the reference.
func selfRefs(t *testing.T, w *workloadDef, rep childReport) refSet {
	t.Helper()
	refs := make(refSet)
	if err := refs.add(w, testSeed, rep.Ops); err != nil {
		t.Fatal(err)
	}
	return refs
}

func checkMetrics(t *testing.T, obj map[string]any, defs []metricDef) {
	t.Helper()
	metrics := obj["metrics"].(map[string]any)
	if len(metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m["unit"] != d.Unit {
			t.Errorf("metric %s unit %v, want %s", d.Name, m["unit"], d.Unit)
		}
		if v, ok := m["value"].(float64); !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("metric %s value %v", d.Name, m["value"])
		}
	}
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that every metric is reported with its unit, that the
// traced run's report and trace file are complete, and that a run checked
// against its own digests has no failed operation.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRun(t, w, false)
			traced := tinyRun(t, w, true)
			res := summarize(w, testSeed, []childReport{plain}, &traced, selfRefs(t, w, plain))
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(plain.Ops) {
				t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			checkMetrics(t, res.object(false), endToEnd)
			checkMetrics(t, res.object(true), perLayer)
			for _, d := range printedLayer {
				if _, ok := traced.Layers[d.Name]; !ok {
					t.Errorf("printed per-layer metric %s missing", d.Name)
				}
			}
			if traced.Layers["pipeline.ns_per_cycle"] <= 0 || traced.Layers["pipeline.restore_us.p95"] <= 0 ||
				traced.Layers["workload.build_s"] <= 0 || traced.Layers["workload.stream_s"] <= 0 {
				t.Errorf("probe times not measured: %v", traced.Layers)
			}
			// Streams are memoized per process, so earlier runs in this test
			// binary may have generated them; only the events must show.
			if traced.Layers["workload.events"] <= 0 {
				t.Errorf("stream probe delivered no events")
			}

			var out bytes.Buffer
			printHuman(&out, w, testSeed, []childReport{plain}, &traced, res)
			text := out.String()
			wantLines := []string{"wall_s", "cpu_s", "peak_rss_mib", "setup_s", failedOpsFrac, "tracing overhead", "(outside)"}
			if w.name == "fig8-paper" {
				wantLines = append(wantLines, fig8DetectedErrPP)
			}
			for _, s := range wantLines {
				if !strings.Contains(text, s) {
					t.Errorf("report lacks %q:\n%s", s, text)
				}
			}

			b, err := os.ReadFile(traced.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tr chromeTrace
			if err := json.Unmarshal(b, &tr); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			spans := 0
			for _, ev := range tr.TraceEvents {
				if ev.Ph == "X" {
					spans++
				}
			}
			if spans == 0 {
				t.Error("trace file holds no spans")
			}
		})
	}
}

// TestCorruptedReferenceFails checks that a digest mismatch is counted as a
// failed operation, named by workload, seed, benchmark and operation.
func TestCorruptedReferenceFails(t *testing.T) {
	w, err := workloadByName("fault-studies")
	if err != nil {
		t.Fatal(err)
	}
	rep := tinyRun(t, w, false)
	refs := selfRefs(t, w, rep)
	bad := rep.Ops[0]
	refs[w.name]["7"][opKey(bad)] = strings.Repeat("0", 64)
	res := summarize(w, testSeed, []childReport{rep}, nil, refs)
	if res.Correct || res.E2E[failedOpsFrac] <= 0 || res.Failed != 1 {
		t.Fatalf("corrupted reference: correct=%v failed=%d frac=%v", res.Correct, res.Failed, res.E2E[failedOpsFrac])
	}
	want := "workload=fault-studies seed=7 bench=" + bad.Bench + " op=" + bad.Name
	if !strings.HasPrefix(res.Failures[0], want) {
		t.Errorf("failure %q, want prefix %q", res.Failures[0], want)
	}
	if obj := res.object(false); obj["correct"] != false || obj["failed"] != 1 {
		t.Errorf("result object %v", obj)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics defined here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s, want %s", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		got, want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, want %d", len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("metric %d: %+v, want %+v", i, c.got[i], c.want[i])
			}
		}
	}
}

func TestCoveredAndSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Start: 40 * ms, End: 70 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 30*ms || self[2] != 40*ms || self[4] != 30*ms {
		t.Errorf("self times %v", self)
	}
	if got := covered([][2]time.Duration{{0, 10 * ms}, {5 * ms, 20 * ms}, {30 * ms, 40 * ms}}, 0, 35*ms); got != 25*ms {
		t.Errorf("covered = %v, want 25ms", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if v, ok := p95(xs); !ok || v != 190 {
		t.Errorf("p95 = %v, %v; want 190 (ten samples beyond)", v, ok)
	}
	if _, ok := p95(xs[:199]); ok {
		t.Error("p95 of 199 samples should be refused")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
