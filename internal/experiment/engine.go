package experiment

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"itr/internal/fault"
	"itr/internal/obs"
	"itr/internal/pipeline"
	"itr/internal/report"
)

// Engine resolves a Spec into the report/fault/energy entry points, timing
// each stage and writing a Manifest beside the run. Engines are single-use:
// build one per run with New.
type Engine struct {
	// Spec is the scenario to run; it is normalized by Run.
	Spec Spec
	// Out receives the rendered tables and figures (the legacy binaries'
	// stdout). Err receives progress ticks and diagnostics.
	Out io.Writer
	Err io.Writer

	out     *digestWriter
	probe   *pipeline.Probe
	sweep   *report.Probe
	camp    *fault.Progress
	started time.Time

	// reg names every live counter/histogram for the /metrics and expvar
	// views; tracer owns the run's event rings. stageRing records stage
	// spans (engine goroutine only); sweepRing records sweep-cell
	// completions (written under mu from recordItem).
	reg       *obs.Registry
	tracer    *obs.Tracer
	stageRing *obs.Ring
	sweepRing *obs.Ring

	mu       sync.Mutex
	bench    map[string]*BenchTiming
	budget   fault.Budget
	manifest Manifest
	// Summed over campaigns: the pilot snapshot series' machine state and
	// the golden logs built, in bytes; goldenPeakBytes is the most one
	// campaign's log held at once (campaign pools run one at a time).
	snapshotStateBytes, goldenLogBytes, goldenPeakBytes int64
}

// addCampaign folds one campaign's decided-outcome accounting and resident
// footprint into the run totals surfaced by the manifest telemetry. Safe to
// call concurrently with the -progress ticker's telemetrySnapshot.
func (e *Engine) addCampaign(r fault.CampaignResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.budget.Merge(r.Budget)
	e.snapshotStateBytes += r.SnapshotStateBytes
	e.goldenLogBytes += r.GoldenLogBytes
	e.goldenPeakBytes = max(e.goldenPeakBytes, r.GoldenPeakBytes)
}

// New builds an engine for spec writing to out (tables) and errw
// (progress/diagnostics). Nil writers default to os.Stdout / os.Stderr.
func New(spec Spec, out, errw io.Writer) *Engine {
	if out == nil {
		out = os.Stdout
	}
	if errw == nil {
		errw = os.Stderr
	}
	return &Engine{Spec: spec, Out: out, Err: errw}
}

// Run executes the spec's experiment and writes the manifest. The rendered
// output is byte-identical to the pre-engine standalone binaries.
func (e *Engine) Run() error {
	e.Spec = e.Spec.Normalized()
	cmd := Lookup(e.Spec.Kind)
	if cmd == nil || cmd.Run == nil {
		return fmt.Errorf("unknown experiment kind %q", e.Spec.Kind)
	}
	e.out = &digestWriter{w: e.Out}
	e.probe = &pipeline.Probe{}
	e.sweep = &report.Probe{}
	e.camp = &fault.Progress{}
	e.bench = make(map[string]*BenchTiming)
	e.started = time.Now()
	e.reg = obs.NewRegistry()
	e.registerMetrics()
	e.tracer = obs.NewTracer(0)
	e.stageRing = e.tracer.Ring("engine")
	e.sweepRing = e.tracer.Ring("sweep")
	e.manifest = Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Spec:          e.Spec,
		Version:       Version(),
		Started:       e.started.UTC().Format(time.RFC3339),
		Workers:       resolveWorkers(e.Spec.Workers),
	}
	if e.Spec.TelemetryAddr != "" {
		srv, err := obs.Serve(e.Spec.TelemetryAddr, e.reg)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		e.manifest.TelemetryAddr = srv.Addr
		fmt.Fprintf(e.Err, "telemetry: serving /metrics, /debug/vars, /debug/pprof/ on %s\n", srv.Addr)
	}
	stopProfile, err := e.startCPUProfile()
	if err != nil {
		return err
	}
	if e.Spec.Progress {
		stop := e.startProgress()
		defer stop()
	}
	if err := cmd.Run(e); err != nil {
		stopProfile()
		return err
	}
	stopProfile()
	if err := e.writeMemProfile(); err != nil {
		return err
	}
	if err := e.writeTrace(); err != nil {
		return err
	}
	e.finish()
	return e.writeManifest()
}

// registerMetrics names the engine's probe counters in the registry. The
// names are the public /metrics contract; the manifest's telemetry keys
// are derived from the same counters in telemetrySnapshot.
func (e *Engine) registerMetrics() {
	e.reg.RegisterCounter("itr_cycles_total", &e.probe.Cycles)
	e.reg.RegisterCounter("itr_decode_events_total", &e.probe.DecodeEvents)
	e.reg.RegisterCounter("itr_snapshot_restores_total", &e.probe.SnapshotRestores)
	e.reg.RegisterCounter("itr_snapshot_captures_total", &e.probe.SnapshotCaptures)
	e.reg.RegisterCounter("itr_snapshot_pages_shared_total", &e.probe.SnapshotPagesShared)
	e.reg.RegisterCounter("itr_snapshot_pages_copied_total", &e.probe.SnapshotPagesCopied)
	e.reg.RegisterCounter("itr_snapshot_bytes_copied_total", &e.probe.SnapshotBytesCopied)
	e.reg.RegisterCounter("itr_detector_polls_total", &e.probe.DetectorPolls)
	e.reg.RegisterCounter("itr_detector_detections_total", &e.probe.DetectorDetections)
	e.reg.RegisterCounter("itr_sweep_streams_generated_total", &e.sweep.StreamsGenerated)
	e.reg.RegisterCounter("itr_sweep_events_replayed_total", &e.sweep.EventsReplayed)
	e.reg.RegisterCounter("itr_sweep_cells_total", &e.sweep.CellsCompleted)
	e.reg.RegisterCounter("itr_injections_total", &e.camp.Injections)
	e.reg.RegisterCounter("itr_injection_cycles_simulated_total", &e.camp.CyclesSimulated)
	e.reg.RegisterCounter("itr_verify_cycles_simulated_total", &e.camp.VerifyCyclesSimulated)
	e.reg.RegisterCounter("itr_injection_cycles_saved_total", &e.camp.CyclesSaved)
	e.reg.RegisterCounter("itr_pilot_cycles_total", &e.camp.PilotCycles)
	e.reg.RegisterCounter("itr_pilot_wall_ns_total", &e.camp.PilotNanos)
	e.reg.RegisterCounter("itr_pilot_snapshots_total", &e.camp.PilotSnapshots)
	e.reg.RegisterCounter("itr_extension_cycles_total", &e.camp.ExtensionCycles)
	e.reg.RegisterCounter("itr_extension_snapshots_total", &e.camp.ExtensionSnapshots)
	e.reg.RegisterCounter("itr_golden_entries_built_total", &e.camp.GoldenEntries)
	e.reg.RegisterGaugeFunc("itr_golden_peak_bytes", func() int64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.goldenPeakBytes
	})
	e.reg.RegisterGaugeFunc("itr_uptime_seconds", func() int64 {
		return int64(time.Since(e.started).Seconds())
	})
	e.reg.RegisterGaugeFunc("itr_trace_events_total", func() int64 {
		if e.tracer == nil {
			return 0
		}
		return e.tracer.TotalEvents()
	})
}

// latencyHists returns the per-backend detection-latency histograms
// (cycles and committed instructions from injection to first detection),
// creating and registering them on first use.
func (e *Engine) latencyHists(backend string) (cycles, insts *obs.Hist) {
	cycles = e.reg.Hist(fmt.Sprintf("itr_detection_latency_cycles{backend=%q}", backend))
	insts = e.reg.Hist(fmt.Sprintf("itr_detection_latency_insts{backend=%q}", backend))
	return cycles, insts
}

// writeTrace exports the run's ring buffers as a Chrome trace-event JSON
// timeline when the spec requests one.
func (e *Engine) writeTrace() error {
	if e.Spec.TraceOut == "" {
		return nil
	}
	f, err := os.Create(e.Spec.TraceOut)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := e.tracer.WriteChromeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// startCPUProfile begins CPU profiling when the spec requests it, returning
// an idempotent stop function (a no-op one when profiling is off).
func (e *Engine) startCPUProfile() (func(), error) {
	if e.Spec.CPUProfile == "" {
		return func() {}, nil
	}
	f, err := os.Create(e.Spec.CPUProfile)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile captures a post-run heap profile when the spec requests
// one. The GC beforehand makes the profile reflect live retention (snapshot
// series, golden streams, arenas) rather than transient garbage.
func (e *Engine) writeMemProfile() error {
	if e.Spec.MemProfile == "" {
		return nil
	}
	f, err := os.Create(e.Spec.MemProfile)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// Manifest returns the run record; valid after Run returns nil.
func (e *Engine) Manifest() Manifest { return e.manifest }

// resolveWorkers maps the spec convention (<= 0 means GOMAXPROCS) to the
// effective width recorded in the manifest.
func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// reportEngine builds a report pool of the given width wired to the
// engine's per-benchmark timing observer and sweep-telemetry probe.
func (e *Engine) reportEngine(workers int) *report.Engine {
	return &report.Engine{Workers: workers, OnItem: e.recordItem, Probe: e.sweep}
}

// recordItem aggregates one timed work unit into the per-benchmark table.
// It is called concurrently from report pool goroutines.
func (e *Engine) recordItem(label string, elapsed time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bt := e.bench[label]
	if bt == nil {
		bt = &BenchTiming{Name: label}
		e.bench[label] = bt
	}
	bt.Seconds += elapsed.Seconds()
	bt.Items++
	// The sweep ring is written here only, and always under mu, which
	// serializes the pool goroutines into a single-writer stream.
	e.sweepRing.Emit(obs.EvSweepCell, e.sweep.CellsCompleted.Load(), elapsed.Microseconds())
}

// stage runs one sequential phase, recording its wall clock and a digest of
// everything it printed.
func (e *Engine) stage(name string, fn func() error) error {
	h := fnv.New64a()
	e.out.setHash(h)
	start := time.Now()
	err := fn()
	e.out.setHash(nil)
	e.stageRing.EmitSpan(obs.EvStage, start, 0, int64(len(e.manifest.Stages)))
	e.manifest.Stages = append(e.manifest.Stages, StageTiming{
		Name:         name,
		Seconds:      time.Since(start).Seconds(),
		OutputDigest: fmt.Sprintf("%016x", h.Sum64()),
	})
	return err
}

// finish seals the manifest: total wall clock, sorted per-benchmark
// timings, and the final telemetry snapshot.
func (e *Engine) finish() {
	e.manifest.WallClockSeconds = time.Since(e.started).Seconds()

	names := make([]string, 0, len(e.bench))
	for name := range e.bench {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.manifest.Benchmarks = append(e.manifest.Benchmarks, *e.bench[name])
	}

	e.manifest.Telemetry = e.telemetrySnapshot()
	t := &e.manifest.Telemetry
	if t.Injections > 0 && e.manifest.WallClockSeconds > 0 {
		t.InjectionsPerSec = float64(t.Injections) / e.manifest.WallClockSeconds
	}
}

// telemetrySnapshot folds the live counters into the manifest's telemetry
// shape. The -progress ticker and the sealed manifest both read through
// here, so the two views can never drift apart.
func (e *Engine) telemetrySnapshot() Telemetry {
	var t Telemetry
	t.CyclesSimulated = e.probe.Cycles.Load()
	t.DecodeEvents = e.probe.DecodeEvents.Load()
	t.SnapshotRestores = e.probe.SnapshotRestores.Load()
	t.SnapshotCaptures = e.probe.SnapshotCaptures.Load()
	t.SnapshotPagesShared = e.probe.SnapshotPagesShared.Load()
	t.SnapshotPagesCopied = e.probe.SnapshotPagesCopied.Load()
	t.SnapshotBytesCopied = e.probe.SnapshotBytesCopied.Load()
	t.StreamsGenerated = e.sweep.StreamsGenerated.Load()
	t.EventsReplayed = e.sweep.EventsReplayed.Load()
	t.SweepCells = e.sweep.CellsCompleted.Load()
	t.Injections = e.camp.Injections.Load()
	t.DetectorPolls = e.probe.DetectorPolls.Load()
	t.DetectorDetections = e.probe.DetectorDetections.Load()
	t.InjectionCyclesSimulated = e.camp.CyclesSimulated.Load()
	t.VerifyCyclesSimulated = e.camp.VerifyCyclesSimulated.Load()
	t.InjectionCyclesSaved = e.camp.CyclesSaved.Load()
	t.PilotCycles = e.camp.PilotCycles.Load()
	t.PilotWallNs = e.camp.PilotNanos.Load()
	t.PilotSnapshots = e.camp.PilotSnapshots.Load()
	t.ExtensionCycles = e.camp.ExtensionCycles.Load()
	t.ExtensionSnapshots = e.camp.ExtensionSnapshots.Load()
	t.GoldenEntriesBuilt = e.camp.GoldenEntries.Load()
	e.mu.Lock()
	t.InjectionsDecidedEarly = e.budget.DecidedEarly
	t.VerifyRunsForked = e.budget.VerifyForked
	t.ProofFallbacks = e.budget.ProofFallbacks
	t.SnapshotStateBytes = e.snapshotStateBytes
	t.GoldenLogBytes = e.goldenLogBytes
	t.GoldenPeakBytes = e.goldenPeakBytes
	if len(e.budget.ByClass) > 0 {
		t.CyclesSavedByClass = make(map[string]int64, len(e.budget.ByClass))
		for cat, cb := range e.budget.ByClass {
			t.CyclesSavedByClass[string(cat)] = cb.Saved
		}
	}
	e.mu.Unlock()
	return t
}

// writeManifest writes the run record to the spec's manifest path
// (default itr-<kind>-manifest.json; "none" disables).
func (e *Engine) writeManifest() error {
	path := e.Spec.ManifestPath
	if path == "none" {
		return nil
	}
	if path == "" {
		path = fmt.Sprintf("itr-%s-manifest.json", e.Spec.Kind)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if err := report.WriteJSON(f, e.manifest); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

// writeArtifact writes the run's machine-readable artifact bundle to the
// spec's JSON path, if one was requested.
func (e *Engine) writeArtifact(art report.ArtifactJSON) error {
	if e.Spec.JSONPath == "" {
		return nil
	}
	f, err := os.Create(e.Spec.JSONPath)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f, art); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProgress launches the -progress ticker: a live telemetry line on Err
// every two seconds. The returned stop function is safe to call once.
func (e *Engine) startProgress() func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				elapsed := time.Since(e.started).Seconds()
				snap := e.telemetrySnapshot()
				line := fmt.Sprintf("progress: %.0fs: %d cycles, %d decode events", elapsed, snap.CyclesSimulated, snap.DecodeEvents)
				if snap.SnapshotRestores > 0 {
					line += fmt.Sprintf(", %d restores", snap.SnapshotRestores)
				}
				if snap.SnapshotCaptures > 0 {
					line += fmt.Sprintf(", %d snapshots (%.1f MiB cow-copied)",
						snap.SnapshotCaptures, float64(snap.SnapshotBytesCopied)/(1<<20))
				}
				if snap.SweepCells > 0 || snap.EventsReplayed > 0 {
					line += fmt.Sprintf(", %d sweep cells (%d streams, %d events replayed)",
						snap.SweepCells, snap.StreamsGenerated, snap.EventsReplayed)
				}
				if snap.Injections > 0 {
					line += fmt.Sprintf(", %d injections (%.1f/s)", snap.Injections, float64(snap.Injections)/elapsed)
				}
				if snap.InjectionCyclesSaved > 0 {
					total := snap.InjectionCyclesSimulated + snap.InjectionCyclesSaved
					line += fmt.Sprintf(", %d cycles saved early (%.0f%% of windows)",
						snap.InjectionCyclesSaved, 100*float64(snap.InjectionCyclesSaved)/float64(total))
				}
				if snap.DetectorPolls > 0 {
					line += fmt.Sprintf(", %d detector polls (%d detections)",
						snap.DetectorPolls, snap.DetectorDetections)
				}
				fmt.Fprintln(e.Err, line)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// digestWriter tees writes into the stage's hash (when one is installed) on
// the way to the real output. The mutex covers hash swaps racing with
// writes; experiment output itself is written from the engine goroutine.
type digestWriter struct {
	mu sync.Mutex
	w  io.Writer
	h  hash.Hash64
}

func (d *digestWriter) setHash(h hash.Hash64) {
	d.mu.Lock()
	d.h = h
	d.mu.Unlock()
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.mu.Lock()
	if d.h != nil {
		d.h.Write(p)
	}
	d.mu.Unlock()
	return d.w.Write(p)
}

// rawWriter wraps a digestWriter, bypassing the stage hash: bytes reach the
// output but never the digest.
type rawWriter struct{ d *digestWriter }

func (r rawWriter) Write(p []byte) (int, error) { return r.d.w.Write(p) }

// rawOut returns a writer to Out that bypasses the current stage's output
// digest. Stages print nondeterministic decoration (wall-clock timings)
// through it, so two runs of the same spec produce byte-identical digests —
// exactly, not "modulo the timing line".
func (e *Engine) rawOut() io.Writer { return rawWriter{d: e.out} }
