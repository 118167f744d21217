package main

// metricDef names one reported metric. Bound applies to end-to-end metrics
// only: the share of the parent commit's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user regenerating the paper sees. All come from
// untraced runs and are medians over the run's workload repetitions.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// Two more end-to-end numbers are printed but not part of the result
// object: failed_ops_frac is 0 on a correct run (the result's "failed" and
// "attempted" carry it), and fig8_detected_err_pp exists on fig8-paper only.
const (
	failedOpsFrac     = "failed_ops_frac"
	fig8DetectedErrPP = "fig8_detected_err_pp"
)

// rssLayers are the layers whose calls the benchmark makes at top level
// outside the traced-only probes; each gets a <layer>.rss_growth_mib metric.
var rssLayers = []string{"workload", "report", "fault", "detect"}

// perLayer are the traced run's metrics that every workload reports with a
// measured value: counts and ratios (0 where the workload never calls the
// layer), and the times of the probes every traced run makes.
var perLayer = []metricDef{
	{"workload.build_s", "s", "lower", 0},
	{"workload.build_s.n", "count", "higher", 0},
	{"workload.stream_s", "s", "lower", 0},
	{"workload.stream_s.n", "count", "higher", 0},
	{"workload.events", "count", "lower", 0},
	{"workload.stream_ns_per_event", "ns", "lower", 0},
	{"workload.streams_generated", "count", "lower", 0},
	{"core.cells", "count", "higher", 0},
	{"pipeline.ns_per_cycle", "ns", "lower", 0},
	{"pipeline.ns_per_cycle.p95", "ns", "lower", 0},
	{"pipeline.ns_per_cycle.n", "count", "higher", 0},
	{"pipeline.snapshot_us", "us", "lower", 0},
	{"pipeline.snapshot_us.p95", "us", "lower", 0},
	{"pipeline.snapshot_us.n", "count", "higher", 0},
	{"pipeline.restore_us", "us", "lower", 0},
	{"pipeline.restore_us.p95", "us", "lower", 0},
	{"pipeline.restore_us.n", "count", "higher", 0},
	{"pipeline.cycles", "count", "lower", 0},
	{"pipeline.snapshot_captures", "count", "lower", 0},
	{"pipeline.snapshot_restores", "count", "lower", 0},
	{"pipeline.pages_copied", "count", "lower", 0},
	{"pipeline.detector_polls", "count", "lower", 0},
	{"fault.prefix_cycles", "count", "lower", 0},
	{"fault.cycles_per_injection", "count", "lower", 0},
	{"fault.decided_early_frac", "frac", "higher", 0},
	{"fault.verify_forked_frac", "frac", "higher", 0},
	{"fault.saved_cycles_frac", "frac", "higher", 0},
	{"fault.proof_fallbacks", "count", "lower", 0},
	{"fault.study_cycles_per_injection", "count", "lower", 0},
	{"detect.polls", "count", "lower", 0},
	{"workload.rss_growth_mib", "MiB", "lower", 0},
	{"report.rss_growth_mib", "MiB", "lower", 0},
	{"fault.rss_growth_mib", "MiB", "lower", 0},
	{"detect.rss_growth_mib", "MiB", "lower", 0},
}

// printedLayer are per-layer times the traced run prints and writes to its
// trace, but leaves out of the result object: each is the time of calls only
// some workloads make, so on the others it would read 0 on every run.
var printedLayer = []metricDef{
	{"trace.characterize_s", "s", "lower", 0},
	{"trace.characterize_s.n", "count", "higher", 0},
	{"core.sweep_s", "s", "lower", 0},
	{"core.sweep_s.n", "count", "higher", 0},
	{"core.ns_per_event", "ns", "lower", 0},
	{"energy.figure9_s", "s", "lower", 0},
	{"energy.figure9_s.n", "count", "higher", 0},
	{"fault.campaign_s", "s", "lower", 0},
	{"fault.campaign_s.n", "count", "higher", 0},
	{"fault.pc_study_s", "s", "lower", 0},
	{"fault.pc_study_s.n", "count", "higher", 0},
	{"fault.rename_study_s", "s", "lower", 0},
	{"fault.rename_study_s.n", "count", "higher", 0},
	{"fault.cache_study_s", "s", "lower", 0},
	{"fault.cache_study_s.n", "count", "higher", 0},
	{"detect.reptfd_campaign_s", "s", "lower", 0},
	{"detect.reptfd_campaign_s.n", "count", "higher", 0},
	{"detect.dme_campaign_s", "s", "lower", 0},
	{"detect.dme_campaign_s.n", "count", "higher", 0},
}
