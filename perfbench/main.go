// Command perfbench is the repository's end-to-end benchmark: it regenerates
// the paper's results as three workloads, times them from outside the
// simulator's packages, and checks every output against recorded reference
// digests. See README.md for the workloads, metrics and layer table.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload fig8-paper --seed 379 --seconds 40 --trace 0
//
// Each repetition of the workload runs in a child process of its own, so
// peak RSS is per repetition and memoized state never carries over. The last
// line of standard output is the result object; with --trace 1 one extra
// traced repetition supplies the per-layer metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runLimit bounds a whole benchmark invocation, children included.
const runLimit = 170 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	child    bool
	traced   bool
	record   string
	seeds    string
}

func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: fig8-paper, fault-studies or paper-functional")
	fs.Uint64Var(&o.seed, "seed", fig8Seed, "input seed (fault-injection sampling; paper-functional has none)")
	fs.Float64Var(&o.seconds, "seconds", 40, "measure for about this long: repeat the workload until another repetition would end more than half a repetition past it")
	fs.IntVar(&o.trace, "trace", 0, "1: add one traced repetition and report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for trace files")
	fs.BoolVar(&o.child, "child", false, "run one repetition in this process and print its raw report (internal)")
	fs.BoolVar(&o.traced, "traced", false, "with -child: trace the repetition")
	fs.StringVar(&o.record, "record", "", "run -seeds once each and merge their digests into this reference file")
	fs.StringVar(&o.seeds, "seeds", "", "with -record: comma-separated seeds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.child {
		rep, err := runChild(w, o.seed, paperSize, o.traced, o.out)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(rep)
	}
	if o.record != "" {
		return record(w, o)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	var reps []childReport
	var took []float64
	start := time.Now()
	for {
		t0 := time.Now()
		rep, err := spawn(ctx, w, o, false)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		took = append(took, time.Since(t0).Seconds())
		// Stop once another repetition, as long as the median one so far,
		// would end more than half a repetition past --seconds: runs then
		// last about --seconds on average, and a workload whose repetition
		// is a large part of it still gets more than one.
		if time.Since(start).Seconds()+median(took)/2 > o.seconds {
			break
		}
	}
	var traced *childReport
	if o.trace == 1 {
		rep, err := spawn(ctx, w, o, true)
		if err != nil {
			return err
		}
		traced = &rep
	}
	res := summarize(w, o.seed, reps, traced, refs)
	printHuman(stdout, w, o.seed, reps, traced, res)
	return json.NewEncoder(stdout).Encode(res.object(o.trace == 1))
}

// spawn runs one repetition in a child process and returns its report.
func spawn(ctx context.Context, w *workloadDef, o options, traced bool) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10), "-out", o.out}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return childReport{}, fmt.Errorf("%s repetition: %w", w.name, err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return childReport{}, fmt.Errorf("%s repetition report: %w", w.name, err)
	}
	return rep, nil
}

// result is the aggregated outcome of one benchmark invocation.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Failures  []string
	E2E       map[string]float64
	Layers    map[string]float64
	// Checked says how outputs were verified: against reference digests,
	// or against internal invariants only (a seed with no references).
	Checked string
}

// summarize checks every repetition's operations against the references and
// aggregates the metrics: medians over the untraced repetitions, and the
// traced repetition's per-layer metrics.
func summarize(w *workloadDef, seed uint64, reps []childReport, traced *childReport, refs refSet) result {
	res := result{E2E: make(map[string]float64)}
	want := refs.lookup(w, seed)
	res.Checked = "reference digests"
	if want == nil {
		res.Checked = "invariants only (no reference digests for this seed)"
	}
	all := reps
	if traced != nil {
		all = append(append([]childReport(nil), reps...), *traced)
	}
	for _, r := range all {
		for _, op := range r.Ops {
			res.Attempted++
			if why := checkOp(op, want); why != "" {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("workload=%s seed=%s bench=%s op=%s: %s",
					w.name, refSeed(w, seed), op.Bench, op.Name, why))
			}
		}
	}
	res.Correct = res.Failed == 0
	per := make(map[string][]float64)
	var setup []float64
	for _, r := range reps {
		for k, v := range r.endToEnd() {
			per[k] = append(per[k], v)
		}
		setup = append(setup, r.SetupS...)
	}
	for k, vs := range per {
		res.E2E[k] = median(vs)
	}
	// Set-up is the median of every sample, not of per-repetition medians.
	res.E2E["setup_s"] = median(setup)
	res.E2E[failedOpsFrac] = ratio(float64(res.Failed), float64(res.Attempted))
	if traced != nil {
		res.Layers = traced.Layers
	}
	return res
}

// checkOp returns why an operation failed, or "" when it passed.
func checkOp(op opDigest, want map[string]string) string {
	if op.Err != "" {
		return "error: " + op.Err
	}
	if want == nil {
		return ""
	}
	ref, ok := want[opKey(op)]
	switch {
	case !ok:
		return "no reference digest"
	case ref != op.Digest:
		return fmt.Sprintf("digest %.12s differs from reference %.12s", op.Digest, ref)
	}
	return ""
}

func opKey(op opDigest) string {
	if op.Bench == "" {
		return op.Name
	}
	return op.Name + "/" + op.Bench
}

// object is the result object printed as the last line of output.
func (r result) object(traced bool) map[string]any {
	defs, vals := endToEnd, r.E2E
	if traced {
		defs, vals = perLayer, r.Layers
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": vals[d.Name], "unit": d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func printHuman(w io.Writer, wl *workloadDef, seed uint64, reps []childReport, traced *childReport, res result) {
	fmt.Fprintf(w, "workload %s, seed %s: %d untraced repetition(s), outputs checked by %s\n",
		wl.name, refSeed(wl, seed), len(reps), res.Checked)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	for _, d := range endToEnd {
		var each []string
		for _, r := range reps {
			each = append(each, fmt.Sprintf("%.4g", r.endToEnd()[d.Name]))
		}
		fmt.Fprintf(w, "  %-22s %12.4f %-5s (median; per repetition: %s)\n", d.Name, res.E2E[d.Name], d.Unit, strings.Join(each, " "))
	}
	fmt.Fprintf(w, "  %-22s %12.4f %-5s (%d of %d operations failed)\n", failedOpsFrac, res.E2E[failedOpsFrac], "frac", res.Failed, res.Attempted)
	if wl.name == "fig8-paper" {
		var pct []float64
		for _, r := range reps {
			pct = append(pct, r.DetectedPct)
		}
		avg := median(pct)
		fmt.Fprintf(w, "  %-22s %12.4f %-5s (simulated: average ITR-detected %.2f%% vs the paper's %.1f%%)\n",
			fig8DetectedErrPP, math.Abs(avg-paperDetectedPct), "pp", avg, paperDetectedPct)
	}
	if wl.name == "paper-functional" {
		fmt.Fprintf(w, "  Table 1 static trace counts equal to the paper's: %d of %d rows\n", reps[0].Table1Match[0], reps[0].Table1Match[1])
	}
	if traced == nil {
		return
	}
	fmt.Fprintf(w, "traced repetition (trace written to %s):\n", traced.TraceFile)
	// Work items run on the report engine's workers, so self times add up
	// like CPU time and their sum can exceed wall_s; shares are of that sum.
	fmt.Fprintf(w, "  %-10s %10s %8s   (self time within the timed interval)\n", "layer", "self (s)", "share")
	layers := make([]string, 0, len(traced.SelfS))
	var total float64
	for l, s := range traced.SelfS {
		layers = append(layers, l)
		total += s
	}
	sort.Slice(layers, func(i, j int) bool { return traced.SelfS[layers[i]] > traced.SelfS[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.4f %7.1f%%\n", l, traced.SelfS[l], 100*ratio(traced.SelfS[l], total))
	}
	fmt.Fprintf(w, "  %-10s %10.4f %7.1f%%  of wall_s: the timed interval outside any top-level span\n", "(outside)", traced.OutsideS, 100*ratio(traced.OutsideS, traced.WallS))
	fmt.Fprintf(w, "  traced wall_s %.4f s, untraced median %.4f s: tracing overhead %+.4f s\n",
		traced.WallS, res.E2E["wall_s"], traced.WallS-res.E2E["wall_s"])
	fmt.Fprintf(w, "  traced-only probes after the timed interval: %.4f s\n", traced.ProbeS)
	for _, defs := range [][]metricDef{perLayer, printedLayer} {
		for _, d := range defs {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, traced.Layers[d.Name], d.Unit)
		}
	}
}

// record runs each seed once and merges its digests into the reference file.
func record(w *workloadDef, o options) error {
	refs, err := readRefs(o.record)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if refs == nil {
		refs = make(refSet)
	}
	seeds := strings.Split(o.seeds, ",")
	if !w.seeded {
		seeds = []string{"0"}
	}
	for _, s := range seeds {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		o.seed = seed
		rep, err := spawn(context.Background(), w, o, false)
		if err != nil {
			return err
		}
		if err := refs.add(w, seed, rep.Ops); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %s seed %s: %d operations\n", w.name, refSeed(w, seed), len(rep.Ops))
	}
	return writeRefs(o.record, refs)
}
