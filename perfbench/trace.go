package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span phases: set-up before the timed interval, the timed interval itself,
// and the traced-only probes after it.
const (
	phaseSetup = "setup"
	phaseWall  = "wall"
	phaseProbe = "probe"
)

// span is one timed call into a layer. Top-level spans (parent 0) are the
// benchmark's own calls and carry the counter and peak-RSS deltas measured
// across them; child spans are the per-benchmark work items the report
// engine hands back through Engine.OnItem.
type span struct {
	ID, Parent int
	Name       string // "<layer>.<call>"
	Bench      string
	Phase      string
	Start, End time.Duration // since the tracer's epoch
	Counters   map[string]int64
	RSSGrowth  float64 // MiB of peak-RSS growth across a top-level span
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) seconds() float64 { return (s.End - s.Start).Seconds() }

// tracer keeps every span of one run in memory; it is written out once the
// run ends. A nil *tracer records nothing, so untraced runs call the same
// code with no tracing cost beyond a nil check.
type tracer struct {
	runID    string
	epoch    time.Time
	counters func() map[string]int64

	mu     sync.Mutex
	phase  string
	nextID int
	spans  []span
}

func newTracer(runID string, counters func() map[string]int64) *tracer {
	return &tracer{runID: runID, epoch: time.Now(), counters: counters, phase: phaseSetup}
}

func (t *tracer) setPhase(p string) {
	if t != nil {
		t.mu.Lock()
		t.phase = p
		t.mu.Unlock()
	}
}

// top runs fn as a top-level span. fn receives the span's id so that work
// items it starts can name their parent.
func (t *tracer) top(name, bench string, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	t.nextID++
	s := span{ID: t.nextID, Name: name, Bench: bench, Phase: t.phase}
	t.mu.Unlock()

	before := t.counters()
	rss := peakRSSMiB()
	s.Start = time.Since(t.epoch)
	err := fn(s.ID)
	s.End = time.Since(t.epoch)
	s.RSSGrowth = peakRSSMiB() - rss
	s.Counters = make(map[string]int64)
	for k, v := range t.counters() {
		if d := v - before[k]; d != 0 {
			s.Counters[k] = d
		}
	}
	t.add(s)
	return err
}

// item returns an Engine.OnItem callback recording each completed work item
// as a child span of parent, or nil when untraced.
func (t *tracer) item(parent int, name string) func(string, time.Duration) {
	if t == nil {
		return nil
	}
	return func(label string, elapsed time.Duration) {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.nextID++
		s := span{ID: t.nextID, Parent: parent, Name: name, Bench: label, Phase: t.phase, Start: end - elapsed, End: end}
		t.mu.Unlock()
		t.add(s)
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans ordered by start time. Call it after
// every traced call has returned.
func (t *tracer) Spans() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi).
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var clipped [][2]time.Duration
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	end := lo
	for _, v := range clipped {
		if v[1] > end {
			total += v[1] - max(v[0], end)
			end = v[1]
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, keyed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// chromeEvent and chromeTrace follow the Chrome trace-event JSON format that
// the itr CLI's -trace-out flag also writes, so one viewer (Perfetto,
// chrome://tracing) loads both.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome writes the spans as complete ("X") events. Top-level spans
// share thread 1; work items, which overlap when the report engine runs
// them on several workers, are packed onto the fewest extra threads on
// which none overlap.
func (t *tracer) writeChrome(w io.Writer) error {
	spans := t.Spans()
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": t.runID}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "calls"}},
	}
	var laneEnd []time.Duration
	for _, s := range spans {
		tid := 1
		if s.Parent != 0 {
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane] > s.Start {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, 0)
				events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: lane + 2,
					Args: map[string]any{"name": "items"}})
			}
			laneEnd[lane] = s.End
			tid = lane + 2
		}
		args := map[string]any{"run": t.runID, "span": s.ID, "parent": s.Parent, "phase": s.Phase}
		if s.Bench != "" {
			args["bench"] = s.Bench
		}
		for k, v := range s.Counters {
			args[k] = v
		}
		if s.Parent == 0 {
			args["rss_growth_mib"] = s.RSSGrowth
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", TS: s.Start.Microseconds(),
			Dur: max(1, (s.End - s.Start).Microseconds()), PID: 1, TID: tid, Args: args})
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
