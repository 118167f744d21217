package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"itr/internal/workload"
)

// opDigest is one operation's outcome as a child process reports it.
type opDigest struct {
	Name   string `json:"name"`
	Bench  string `json:"bench,omitempty"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// childReport is everything one workload run measures. Layers, SelfS and
// the span totals are filled in traced runs only.
type childReport struct {
	WallS       float64            `json:"wall_s"`
	CPUS        float64            `json:"cpu_s"`
	PeakRSSMiB  float64            `json:"peak_rss_mib"`
	SetupS      []float64          `json:"setup_s"`
	Ops         []opDigest         `json:"ops"`
	DetectedPct float64            `json:"detected_pct,omitempty"`
	Table1Match [2]int             `json:"table1_match"` // rows equal to the paper's, of rows
	Layers      map[string]float64 `json:"layers,omitempty"`
	SelfS       map[string]float64 `json:"self_s,omitempty"`
	OutsideS    float64            `json:"outside_s,omitempty"`
	ProbeS      float64            `json:"probe_s,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// endToEnd returns the repetition's end-to-end metrics.
func (r childReport) endToEnd() map[string]float64 {
	return map[string]float64{"wall_s": r.WallS, "cpu_s": r.CPUS, "peak_rss_mib": r.PeakRSSMiB, "setup_s": median(r.SetupS)}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is the process's peak resident set so far (ru_maxrss, KiB on
// Linux).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// runChild runs one workload once in this process: set-up, the timed
// interval, and in traced runs the probes, span accounting and trace file.
func runChild(w *workloadDef, seed uint64, sz size, traced bool, outDir string) (childReport, error) {
	var rep childReport
	e := &env{seed: seed, size: sz}
	runID := fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid())
	if traced {
		e.tr = newTracer(runID, e.counters)
	}

	// Set-up: program synthesis, sampled SetupReps times through the
	// uncached workload.Build and once through workload.CachedProgram, whose
	// memoized programs the calls use.
	profiles := w.benches(sz)
	for r := 0; r < sz.SetupReps; r++ {
		t0 := time.Now()
		for _, p := range profiles {
			if _, err := workload.Build(p); err != nil {
				return rep, fmt.Errorf("build %s: %w", p.Name, err)
			}
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	for _, p := range profiles {
		err := e.tr.top("workload.build", p.Name, func(int) error {
			_, err := workload.CachedProgram(p)
			return err
		})
		if err != nil {
			return rep, fmt.Errorf("build %s: %w", p.Name, err)
		}
	}
	rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())

	// The timed interval: from the first layer call to the last.
	e.tr.setPhase(phaseWall)
	var wallStart time.Duration
	if traced {
		wallStart = time.Since(e.tr.epoch)
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	var err error
	if traced && w.pregen {
		err = e.streamProbe(profiles)
	}
	if err == nil {
		err = w.run(e)
	}
	wall := time.Since(start)
	rep.WallS = wall.Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	rep.PeakRSSMiB = peakRSSMiB()
	if err != nil {
		e.record("workload", "", nil, err)
	}
	rep.DetectedPct = e.detectedPct
	rep.Table1Match = [2]int{e.table1Matched, e.table1Rows}

	if traced {
		e.tr.setPhase(phaseProbe)
		probeStart := time.Now()
		if !w.pregen {
			if err := e.streamProbe(profiles); err != nil {
				return rep, err
			}
		}
		if err := e.pipelineProbe(profiles); err != nil {
			return rep, err
		}
		rep.ProbeS = time.Since(probeStart).Seconds()
		spans := e.tr.Spans()
		rep.Layers = layerMetrics(e, spans)
		rep.SelfS, rep.OutsideS = selfByLayer(spans, wallStart, wallStart+wall)
		rep.TraceFile = filepath.Join(outDir, "trace-"+runID+".json")
		if err := writeTraceFile(e.tr, rep.TraceFile); err != nil {
			return rep, err
		}
	}

	for _, o := range e.ops {
		d := opDigest{Name: o.name, Bench: o.bench}
		if o.err == nil {
			d.Digest, o.err = digest(o.value)
		}
		if o.err != nil {
			d.Err = o.err.Error()
		}
		rep.Ops = append(rep.Ops, d)
	}
	return rep, nil
}

// digest hashes an operation's result. encoding/json orders map keys, so
// equal results always hash equally.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func writeTraceFile(t *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfByLayer sums the self time of the timed interval's spans per layer and
// returns the part of the interval no top-level span covers.
func selfByLayer(spans []span, lo, hi time.Duration) (map[string]float64, float64) {
	self := selfTimes(spans)
	out := make(map[string]float64)
	var tops [][2]time.Duration
	for _, s := range spans {
		if s.Phase != phaseWall {
			continue
		}
		out[s.layer()] += self[s.ID].Seconds()
		if s.Parent == 0 {
			tops = append(tops, [2]time.Duration{s.Start, s.End})
		}
	}
	return out, (hi - lo - covered(tops, lo, hi)).Seconds()
}

// spanTotal sums the spans with any of the given names: their
// total seconds, their count and their counter deltas.
type spanTotal struct {
	seconds  float64
	n        int
	counters map[string]int64
}

func totalOf(spans []span, names ...string) spanTotal {
	t := spanTotal{counters: make(map[string]int64)}
	for _, s := range spans {
		for _, name := range names {
			if s.Name == name {
				t.seconds += s.seconds()
				t.n++
				for k, v := range s.Counters {
					t.counters[k] += v
				}
			}
		}
	}
	return t
}

// layerMetrics derives the per-layer metrics from the spans and the probe
// counters. Metrics of a layer the workload never calls read 0.
func layerMetrics(e *env, spans []span) map[string]float64 {
	m := make(map[string]float64)
	timed := func(name string, t spanTotal) {
		m[name] = t.seconds
		m[name+".n"] = float64(t.n)
	}
	sampled := func(name string, xs []float64) {
		m[name] = median(xs)
		m[name+".p95"], _ = p95(xs)
		m[name+".n"] = float64(len(xs))
	}

	timed("workload.build_s", totalOf(spans, "workload.build"))
	stream := totalOf(spans, "workload.stream")
	timed("workload.stream_s", stream)
	m["workload.events"] = float64(e.streamEvents)
	m["workload.stream_ns_per_event"] = ratio(stream.seconds*1e9, float64(e.streamEvents))
	m["workload.streams_generated"] = float64(e.streamsGenerated + e.sweep.StreamsGenerated.Load())

	timed("trace.characterize_s", totalOf(spans, "report.PopularityFigure", "report.DistanceFigure", "report.Table1"))
	sweep := totalOf(spans, "report.CoverageSweepWarm")
	timed("core.sweep_s", sweep)
	m["core.ns_per_event"] = ratio(sweep.seconds*1e9, float64(sweep.counters["report.events_replayed"]))
	m["core.cells"] = float64(sweep.counters["report.cells"])
	timed("energy.figure9_s", totalOf(spans, "report.Figure9"))

	sampled("pipeline.ns_per_cycle", e.nsPerCycle)
	sampled("pipeline.snapshot_us", e.snapshotUS)
	sampled("pipeline.restore_us", e.restoreUS)
	m["pipeline.cycles"] = float64(e.pipe.Cycles.Load())
	m["pipeline.snapshot_captures"] = float64(e.pipe.SnapshotCaptures.Load())
	m["pipeline.snapshot_restores"] = float64(e.pipe.SnapshotRestores.Load())
	m["pipeline.pages_copied"] = float64(e.pipe.SnapshotPagesCopied.Load())
	m["pipeline.detector_polls"] = float64(e.pipe.DetectorPolls.Load())

	timed("fault.campaign_s", totalOf(spans, "fault.campaign"))
	b, inj := e.budget, float64(e.injections)
	m["fault.prefix_cycles"] = float64(totalOf(spans, "report.Figure8").counters["pipeline.cycles"] - b.CyclesSimulated)
	m["fault.cycles_per_injection"] = ratio(float64(b.CyclesSimulated), inj)
	m["fault.decided_early_frac"] = ratio(float64(b.DecidedEarly), inj)
	m["fault.verify_forked_frac"] = ratio(float64(b.VerifyForked), inj)
	m["fault.saved_cycles_frac"] = ratio(float64(b.CyclesSaved), float64(b.CyclesSimulated+b.CyclesSaved))
	m["fault.proof_fallbacks"] = float64(b.ProofFallbacks)
	studies := totalOf(spans, "fault.pc_study", "fault.rename_study", "fault.cache_study")
	timed("fault.pc_study_s", totalOf(spans, "fault.pc_study"))
	timed("fault.rename_study_s", totalOf(spans, "fault.rename_study"))
	timed("fault.cache_study_s", totalOf(spans, "fault.cache_study"))
	m["fault.study_cycles_per_injection"] = ratio(float64(studies.counters["pipeline.cycles"]), float64(studies.n*e.size.StudyN))

	timed("detect.reptfd_campaign_s", totalOf(spans, "detect.reptfd_campaign"))
	timed("detect.dme_campaign_s", totalOf(spans, "detect.dme_campaign"))
	m["detect.polls"] = float64(totalOf(spans, "detect.reptfd_campaign", "detect.dme_campaign").counters["pipeline.detector_polls"])

	for _, l := range rssLayers {
		m[l+".rss_growth_mib"] = 0
	}
	// The probes' memory is not the workload's.
	for _, s := range spans {
		if s.Parent == 0 && s.Phase != phaseProbe {
			m[s.layer()+".rss_growth_mib"] += s.RSSGrowth
		}
	}
	return m
}
