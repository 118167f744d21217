package experiment

import (
	"runtime/debug"
)

// ManifestSchemaVersion identifies the manifest wire shape; bump it on any
// incompatible change so downstream consumers can dispatch.
const ManifestSchemaVersion = 1

// Manifest is the reproducible record written alongside every run: the spec
// that produced it, the code version, wall clock per stage, effective worker
// width, per-benchmark timings, digests of the rendered output, and the
// simulation telemetry accumulated by the pipeline and campaign probes.
type Manifest struct {
	SchemaVersion int `json:"schemaVersion"`
	// Spec echoes the (normalized) spec; feeding it back through
	// `itr run -spec` reproduces the run.
	Spec Spec `json:"spec"`
	// Version is a git-describe-style identifier of the code that ran
	// (VCS revision when stamped into the build, else "unknown").
	Version string `json:"version"`
	// Started is the run's UTC start time, RFC 3339.
	Started string `json:"started"`
	// WallClockSeconds is the whole run, including manifest bookkeeping.
	WallClockSeconds float64 `json:"wallClockSeconds"`
	// Workers is the effective worker width the run resolved to.
	Workers int `json:"workers"`
	// SnapshotInterval is the resolved campaign fast-forward interval
	// (fault runs only; 0 = fast path disabled).
	SnapshotInterval int64 `json:"snapshotInterval,omitempty"`
	// Stages times each sequential phase of the run and digests the bytes
	// it printed, so two runs can be compared stage by stage.
	Stages []StageTiming `json:"stages"`
	// Benchmarks aggregates per-benchmark work (sorted by name; one entry
	// per benchmark that contributed timed work units).
	Benchmarks []BenchTiming `json:"benchmarks,omitempty"`
	// Detectors records per-backend results for shootout runs (one entry per
	// backend, in the order run).
	Detectors []DetectorRun `json:"detectors,omitempty"`
	// Telemetry is the probe snapshot at the end of the run.
	Telemetry Telemetry `json:"telemetry"`
	// TelemetryAddr is the resolved listen address the run's live telemetry
	// endpoint actually bound (spec telemetryAddr; empty when disabled).
	TelemetryAddr string `json:"telemetryAddr,omitempty"`
}

// DetectorRun is one backend's slice of a shootout: its Figure 8 coverage,
// the detector telemetry it accumulated, and its Figure 9-style energy
// estimate.
type DetectorRun struct {
	Name string `json:"name"`
	// DetectedPct is the campaign-average detection coverage (percent of
	// injected faults the backend detected inside the window).
	DetectedPct float64 `json:"detectedPct"`
	// Injections and Detections count completed injection experiments and
	// detector-observed mismatches across the backend's campaigns.
	Injections int64 `json:"injections"`
	Detections int64 `json:"detections"`
	// Polls counts detector poll checks during the backend's campaigns.
	Polls int64 `json:"polls"`
	// EnergyMJ is the backend's detection-energy estimate over the spec's
	// Scale instructions (energy.DetectorEnergyMJ).
	EnergyMJ float64 `json:"energyMJ"`
	// LatencyP50Cycles and LatencyP99Cycles are detection-latency quantile
	// upper bounds in pipeline cycles (injection to first detection, over
	// the backend's detected faults); 0 when nothing was detected.
	LatencyP50Cycles int64 `json:"latencyP50Cycles"`
	LatencyP99Cycles int64 `json:"latencyP99Cycles"`
}

// StageTiming is one sequential phase of a run.
type StageTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// OutputDigest is the FNV-64a of the bytes the stage wrote to stdout —
	// a cheap result digest: identical output implies identical digest.
	OutputDigest string `json:"outputDigest"`
}

// BenchTiming aggregates one benchmark's timed work units (characterization
// runs, sweep cell replays, fault campaigns).
type BenchTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Items is the number of work units timed (e.g. sweep cells).
	Items int `json:"items"`
}

// Telemetry is the observability snapshot surfaced in the manifest and the
// -progress ticker.
type Telemetry struct {
	// CyclesSimulated and DecodeEvents aggregate over every pipeline the
	// run created (pilots, observe runs, verify runs, sim runs).
	CyclesSimulated int64 `json:"cyclesSimulated"`
	DecodeEvents    int64 `json:"decodeEvents"`
	// SnapshotRestores counts campaign fast-forward resumes.
	SnapshotRestores int64 `json:"snapshotRestores"`
	// SnapshotCaptures counts pilot snapshots taken. Snapshot memory is
	// copy-on-write: each capture shares its unchanged pages with earlier
	// captures (SnapshotPagesShared sums those per capture), and the write
	// path copies a page only on the first store after a capture
	// (SnapshotPagesCopied / SnapshotBytesCopied count that actual copying —
	// the whole memory cost of the snapshot series beyond page-table walks).
	SnapshotCaptures    int64 `json:"snapshotCaptures,omitempty"`
	SnapshotPagesShared int64 `json:"snapshotPagesShared,omitempty"`
	SnapshotPagesCopied int64 `json:"snapshotPagesCopied,omitempty"`
	SnapshotBytesCopied int64 `json:"snapshotBytesCopied,omitempty"`
	// StreamsGenerated counts functional event-stream generations (workload
	// cache misses); EventsReplayed counts trace events traversed by the
	// sweep engine (one count per stream pass, however many cache
	// configurations fan out from it); SweepCells counts completed
	// (benchmark, configuration) sweep cells.
	StreamsGenerated int64 `json:"streamsGenerated,omitempty"`
	EventsReplayed   int64 `json:"eventsReplayed,omitempty"`
	SweepCells       int64 `json:"sweepCells,omitempty"`
	// Injections counts completed fault-injection experiments;
	// InjectionsPerSec is Injections over the run's wall clock.
	Injections       int64   `json:"injections,omitempty"`
	InjectionsPerSec float64 `json:"injectionsPerSec,omitempty"`
	// DetectorPolls counts detection-backend poll checks at commit;
	// DetectorDetections counts mismatches the backends observed.
	DetectorPolls      int64 `json:"detectorPolls,omitempty"`
	DetectorDetections int64 `json:"detectorDetections,omitempty"`
	// The decided-outcome engine's accounting (fault/shootout runs):
	// InjectionCyclesSimulated is the pipeline cycles injection runs
	// actually simulated, VerifyCyclesSimulated the share of it spent in
	// full-protocol verify runs; InjectionCyclesSaved is the window cycles
	// skipped by early-settled classifications and verify-run forks;
	// InjectionsDecidedEarly counts observe runs that exited before their
	// window; VerifyRunsForked counts verify runs resumed from a pre-fault
	// fork of the observe machine; ProofFallbacks counts convergence proofs
	// that failed (those runs simulated their full window).
	InjectionCyclesSimulated int64 `json:"injectionCyclesSimulated,omitempty"`
	VerifyCyclesSimulated    int64 `json:"verifyCyclesSimulated,omitempty"`
	InjectionCyclesSaved     int64 `json:"injectionCyclesSaved,omitempty"`
	InjectionsDecidedEarly   int64 `json:"injectionsDecidedEarly,omitempty"`
	VerifyRunsForked         int64 `json:"verifyRunsForked,omitempty"`
	ProofFallbacks           int64 `json:"proofFallbacks,omitempty"`
	// CyclesSavedByClass breaks InjectionCyclesSaved down by Figure 8
	// outcome category.
	CyclesSavedByClass map[string]int64 `json:"cyclesSavedByClass,omitempty"`
	// The Figure 8 fault-free prefix, summed over campaigns: PilotCycles
	// and PilotWallNs are the pilots' simulated cycles and the prefixes'
	// wall time (pilot, sampling and extension); PilotSnapshots counts the
	// snapshots pilots captured before their horizon, ExtensionSnapshots
	// and ExtensionCycles what the extensions past it captured and
	// simulated. Pilot and extension cycles are part of CyclesSimulated.
	PilotCycles        int64 `json:"pilotCycles,omitempty"`
	PilotWallNs        int64 `json:"pilotWallNs,omitempty"`
	PilotSnapshots     int64 `json:"pilotSnapshots,omitempty"`
	ExtensionCycles    int64 `json:"extensionCycles,omitempty"`
	ExtensionSnapshots int64 `json:"extensionSnapshots,omitempty"`
	// SnapshotStateBytes sums, over campaigns, the machine state the
	// retained pilot snapshots hold beside their copy-on-write memory pages
	// (cache lines, predictor tables, ROB columns). GoldenEntriesBuilt and
	// GoldenLogBytes sum the fault-free commit-log entries built and their
	// chunks' size; GoldenPeakBytes is the most one campaign's log held
	// resident at once.
	SnapshotStateBytes int64 `json:"snapshotStateBytes,omitempty"`
	GoldenEntriesBuilt int64 `json:"goldenEntriesBuilt,omitempty"`
	GoldenLogBytes     int64 `json:"goldenLogBytes,omitempty"`
	GoldenPeakBytes    int64 `json:"goldenPeakBytes,omitempty"`
}

// Version returns a git-describe-style identifier for the running build:
// the VCS revision (12 hex digits, "+dirty" when the tree was modified)
// when the toolchain stamped one, else "unknown".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if modified == "true" {
		rev += "+dirty"
	}
	return rev
}
