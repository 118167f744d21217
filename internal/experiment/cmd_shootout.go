package experiment

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"itr/internal/detect"
	"itr/internal/energy"
	"itr/internal/fault"
	"itr/internal/obs"
	"itr/internal/report"
	"itr/internal/stats"
	"itr/internal/workload"
)

func bindShootout(fs *flag.FlagSet, s *Spec) {
	fs.IntVar(&s.Shootout.Faults, "faults", s.Shootout.Faults, "injections per benchmark per backend")
	fs.Int64Var(&s.Shootout.Window, "window", s.Shootout.Window, "observation window in cycles")
	fs.StringVar(&s.Shootout.Backends, "backends", s.Shootout.Backends,
		fmt.Sprintf("comma-separated backend list (subset of %s)", strings.Join(detect.Names(), ",")))
	fs.StringVar(&s.Bench, "bench", s.Bench, "restrict to one benchmark")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "campaign seed (shared by every backend)")
	fs.Var(negBool{&s.Shootout.NoVerify}, "verify", "confirm each recoverable detection with the full protocol")
	fs.Int64Var(&s.Shootout.Scale, "scale", s.Shootout.Scale, "scale the energy estimate to this many committed instructions")
	fs.Int64Var(&s.Budget, "budget", s.Budget, "dynamic-instruction budget for the energy measurement")
	fs.IntVar(&s.Workers, "workers", s.Workers, "injection worker-pool width per campaign (0 = GOMAXPROCS); results are identical at any width")
	fs.Int64Var(&s.Shootout.SnapshotInterval, "snapshot-interval", s.Shootout.SnapshotInterval,
		fmt.Sprintf("decode events between pilot snapshots for campaign fast-forward (0 = default %d, negative = disabled)", fault.DefaultSnapshotInterval))
	fs.BoolVar(&s.Shootout.SweepChunks, "sweep-chunks", s.Shootout.SweepChunks,
		"also sweep each backend's granularity knob (reptfd chunk length, dme address offset) and print a per-configuration table")
}

// parseBackends resolves the spec's comma-separated backend list into
// canonical, deduplicated names, rejecting unknown entries.
func parseBackends(csv string) ([]string, error) {
	var names []string
	seen := make(map[string]bool)
	for _, f := range strings.Split(csv, ",") {
		if strings.TrimSpace(f) == "" {
			continue
		}
		if !detect.Known(f) {
			return nil, fmt.Errorf("unknown detector backend %q (have %s)", strings.TrimSpace(f), strings.Join(detect.Names(), ", "))
		}
		name := detect.Canonical(f)
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty backend list")
	}
	return names, nil
}

// runShootout races the detection backends against each other: one Figure 8
// campaign per backend over the same injections (same seed, same windows),
// one Figure 9-style energy measurement, and a closing table putting
// per-backend coverage, detector telemetry and energy side by side. The
// manifest records the same comparison as Manifest.Detectors.
func runShootout(e *Engine) error {
	s := e.Spec
	w := e.out

	backends, err := parseBackends(s.Shootout.Backends)
	if err != nil {
		return err
	}

	profiles := workload.CoverageSuite()
	if s.Bench != "" {
		p, err := workload.ByName(s.Bench)
		if err != nil {
			return err
		}
		profiles = []workload.Profile{p}
	}

	// Parallelism lives in the per-injection campaign pool (as in fault).
	rep := e.reportEngine(1)

	fmt.Fprintf(w, "Detector shootout: %d faults/benchmark, %d-cycle window, backends %s.\n",
		s.Shootout.Faults, s.Shootout.Window, strings.Join(backends, ", "))

	// campaignCfg builds one backend's campaign over the shared injection
	// sample; the shootout loop and the granularity sweep both go through it.
	campaignCfg := func(name string) fault.CampaignConfig {
		cfg := fault.DefaultCampaignConfig()
		cfg.Faults = s.Shootout.Faults
		cfg.Seed = s.Seed
		cfg.Workers = s.Workers
		cfg.Progress = e.camp
		cfg.Experiment.WindowCycles = s.Shootout.Window
		cfg.Experiment.Verify = !s.Shootout.NoVerify
		cfg.Experiment.SnapshotInterval = s.Shootout.SnapshotInterval
		cfg.Experiment.Pipeline.Detector = name
		cfg.Experiment.Pipeline.Probe = e.probe
		cfg.Tracer = e.tracer
		return cfg
	}

	// One campaign per backend, same injection sample (the seed and window
	// fix the decode-event draw, which is backend-independent: the pilot's
	// fault-free trajectory does not depend on the detector).
	runs := make([]DetectorRun, len(backends))
	for i, name := range backends {
		cfg := campaignCfg(name)
		latCycles, latInsts := e.latencyHists(name)
		cfg.LatencyCycles, cfg.LatencyInsts = latCycles, latInsts

		pollsBefore := e.probe.DetectorPolls.Load()
		detBefore := e.probe.DetectorDetections.Load()
		injBefore := e.camp.Injections.Load()
		if err := e.stage("campaign-"+name, func() error {
			start := time.Now()
			rows, err := rep.Figure8(profiles, cfg)
			if err != nil {
				return err
			}
			var avgDet float64
			for _, r := range rows {
				avgDet += r.Result.DetectedPct()
			}
			if len(rows) > 0 {
				avgDet /= float64(len(rows))
			}
			runs[i] = DetectorRun{Name: name, DetectedPct: avgDet}
			for _, r := range rows {
				e.addCampaign(r.Result)
			}
			// Keep the wall-clock decoration out of the stage digest so
			// reruns of the same spec hash identically.
			fmt.Fprintf(w, "  %-7s %5.1f%% detected (%d campaigns", name, avgDet, len(rows))
			fmt.Fprintf(e.rawOut(), " in %v", time.Since(start).Round(time.Millisecond))
			fmt.Fprintln(w, ")")
			return nil
		}); err != nil {
			return err
		}
		runs[i].Polls = e.probe.DetectorPolls.Load() - pollsBefore
		runs[i].Detections = e.probe.DetectorDetections.Load() - detBefore
		runs[i].Injections = e.camp.Injections.Load() - injBefore
		runs[i].LatencyP50Cycles = latCycles.Quantile(0.50)
		runs[i].LatencyP99Cycles = latCycles.Quantile(0.99)
	}

	// One energy measurement feeds every backend's estimate: the ITR cache
	// access stream and the redundant-fetch stream at the spec's scale.
	var itrMJ, redMJ float64
	if err := e.stage("energy", func() error {
		rows, err := rep.Figure9(profiles, s.Budget, s.Shootout.Scale)
		if err != nil {
			return err
		}
		for _, r := range rows {
			itrMJ += r.ITRSinglePort
			redMJ += r.ICacheRedFetch
		}
		if len(rows) > 0 {
			itrMJ /= float64(len(rows))
			redMJ /= float64(len(rows))
		}
		return nil
	}); err != nil {
		return err
	}
	for i := range runs {
		runs[i].EnergyMJ = energy.DetectorEnergyMJ(runs[i].Name, itrMJ, redMJ)
	}
	e.manifest.Detectors = runs

	if err := e.stage("shootout-table", func() error {
		fmt.Fprintf(w, "\nBackend comparison (Figure 8 coverage; energy per %d committed instructions):\n", s.Shootout.Scale)
		t := stats.NewTable("backend", "detected (%)", "lat p50 (cyc)", "lat p99 (cyc)", "injections", "detections", "polls", "energy (mJ)")
		for _, r := range runs {
			t.AddRow(r.Name, r.DetectedPct, r.LatencyP50Cycles, r.LatencyP99Cycles, r.Injections, r.Detections, r.Polls, r.EnergyMJ)
		}
		fmt.Fprint(w, t.String())
		fmt.Fprintln(w, "(itr pays one small-cache lookup per trace; reptfd re-fetches every")
		fmt.Fprintln(w, " instruction to replay chunks, with detection latency up to a chunk;")
		fmt.Fprintln(w, " dme re-fetches and re-executes everything for the tightest detection;")
		fmt.Fprintln(w, " latency quantiles are log2-bucket upper bounds over detected faults)")
		return nil
	}); err != nil {
		return err
	}

	if !s.Shootout.SweepChunks {
		return nil
	}
	return e.stage("sweep-chunks", func() error {
		return runChunkSweep(e, w, backends, campaignCfg, profiles, rep)
	})
}

// chunkSweepCell is one (backend, knob value) configuration of the
// detection-granularity sweep.
type chunkSweepCell struct {
	backend string
	knob    string
	label   string
	opts    detect.Options
}

// chunkSweepCells enumerates the sweep: RepTFD's chunk length trades
// detection latency against replay bookkeeping, and DME's address offset
// moves the shadow image around the address space (coverage should be
// offset-invariant — the sweep row is the regression check). ITR holds no
// granularity knob and is skipped.
func chunkSweepCells(backends []string) []chunkSweepCell {
	var cells []chunkSweepCell
	for _, name := range backends {
		switch name {
		case detect.NameRepTFD:
			for _, n := range []int{2, 4, 8, 16, 32} {
				cells = append(cells, chunkSweepCell{
					backend: name, knob: "chunk-traces",
					label: fmt.Sprintf("%d", n),
					opts:  detect.Options{ChunkTraces: n},
				})
			}
		case detect.NameDME:
			for _, shift := range []uint{28, 32, 36} {
				cells = append(cells, chunkSweepCell{
					backend: name, knob: "addr-offset",
					label: fmt.Sprintf("2^%d", shift),
					opts:  detect.Options{AddrOffset: 1 << shift},
				})
			}
		}
	}
	return cells
}

// runChunkSweep runs one campaign per granularity cell and prints the
// resulting coverage/latency table.
func runChunkSweep(e *Engine, w io.Writer, backends []string, campaignCfg func(string) fault.CampaignConfig, profiles []workload.Profile, rep *report.Engine) error {
	cells := chunkSweepCells(backends)
	if len(cells) == 0 {
		fmt.Fprintln(w, "\n(granularity sweep: no swept backend in the list; reptfd and dme carry the knobs)")
		return nil
	}
	fmt.Fprintln(w, "\nDetection-granularity sweep (same injection sample per cell):")
	t := stats.NewTable("backend", "knob", "value", "detected (%)", "lat p50 (cyc)", "lat p99 (cyc)", "detections")
	for _, cell := range cells {
		cfg := campaignCfg(cell.backend)
		cfg.Experiment.Pipeline.DetectorOpts = cell.opts
		var latCycles, latInsts obs.Hist
		cfg.LatencyCycles, cfg.LatencyInsts = &latCycles, &latInsts
		rows, err := rep.Figure8(profiles, cfg)
		if err != nil {
			return fmt.Errorf("sweep %s %s=%s: %w", cell.backend, cell.knob, cell.label, err)
		}
		var avgDet float64
		detections := 0
		for _, r := range rows {
			avgDet += r.Result.DetectedPct()
			for _, d := range r.Result.Details {
				if d.Detected {
					detections++
				}
			}
			e.addCampaign(r.Result)
		}
		if len(rows) > 0 {
			avgDet /= float64(len(rows))
		}
		t.AddRow(cell.backend, cell.knob, cell.label, avgDet,
			latCycles.Quantile(0.50), latCycles.Quantile(0.99), detections)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "(longer reptfd chunks defer the digest compare, stretching latency and")
	fmt.Fprintln(w, " leaving more window-end faults inside an open chunk; dme coverage must")
	fmt.Fprintln(w, " not depend on where the shadow image lands)")
	return nil
}
