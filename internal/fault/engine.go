package fault

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"itr/internal/core"
	"itr/internal/obs"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
)

// target is one injection's fault site, a case of the engine's sum type:
// decodeBit (Figure 8), fetchPC, renameIndex or cacheLine.
type target interface {
	// precedes reports whether snapshot s was captured strictly before the
	// fault point, so a leg resumed from s still replays the fault.
	precedes(s *pipeline.Snapshot) bool
	// run arms the fault on a machine reset to r.from and runs the leg.
	run(e *engine, r *legRun) error
}

// engine is the state one study call shares: pilots supply snapshots and the
// golden log, and a worker pool runs every injection as resumed legs.
type engine struct {
	prog    *program.Program
	cfg     Config
	seed    uint64
	stream  *GoldenStream
	workers int
	prefix  prefixStats

	tracer          *obs.Tracer // Figure 8 only, like the fields below
	observe, verify *source
	oracle          *SigOracle
}

// prefixStats accounts the fault-free prefix: cycles simulated and snapshots
// captured by pilots, and by horizon extensions past them.
type prefixStats struct {
	pilotCycles, extensionCycles int64
	pilotSnaps, extensionSnaps   int
}

func newEngine(prog *program.Program, cfg Config, seed uint64) *engine {
	return &engine{prog: prog, cfg: cfg, seed: seed, stream: NewGoldenStream(prog), workers: runtime.GOMAXPROCS(0)}
}

// source is one machine configuration legs run on, with the pilot snapshots
// that restore into it (ascending; none means every leg starts cold).
type source struct {
	cfg    pipeline.Config
	window int64 // the capture loop's cycle bound
	snaps  []*pipeline.Snapshot
	open   bool // the capture loop stopped at a horizon; extend may continue it
}

// newSource is an empty source for pcfg whose capture loop has not started.
func (e *engine) newSource(pcfg pipeline.Config, window int64) *source {
	return &source{cfg: pcfg, window: window, open: e.cfg.EffectiveSnapshotInterval() > 0}
}

// pilotCPU builds a fault-free machine for src's capture loop.
func (e *engine) pilotCPU(src *source) (*pipeline.CPU, error) {
	run := src.cfg
	if e.tracer != nil {
		run.Trace = e.tracer.Ring("fault-pilot")
	}
	cpu, err := pipeline.New(e.prog, run)
	if err != nil {
		return nil, fmt.Errorf("pilot: %w", err)
	}
	return cpu, nil
}

// pilot runs prog fault-free under pcfg for up to cycles cycles, capturing a
// snapshot every snapshot-interval decode events until cycle horizon, and
// returns their source and the fault-free Result. Past the horizon it only
// runs on: the Result covers the whole window, whose decode count sets the
// injection sampling range.
func (e *engine) pilot(pcfg pipeline.Config, cycles, horizon int64) (*source, pipeline.Result, error) {
	src := e.newSource(pcfg, cycles)
	cpu, err := e.pilotCPU(src)
	if err != nil {
		return nil, pipeline.Result{}, err
	}
	res := e.capture(src, cpu, func(cpu *pipeline.CPU) bool { return cpu.CycleCount() < horizon })
	if src.open {
		res = cpu.Run(cycles - cpu.CycleCount())
	}
	e.prefix.pilotCycles += cpu.CycleCount()
	e.prefix.pilotSnaps += len(src.snaps)
	return src, res, nil
}

// capture runs the pilot's capture loop on cpu from where it stands: it
// stops every snapshot-interval decode events and snapshots each stop want
// accepts, until the window ends, the machine terminates, or want declines
// a stop, which leaves src open at its last snapshot.
func (e *engine) capture(src *source, cpu *pipeline.CPU, want func(cpu *pipeline.CPU) bool) pipeline.Result {
	interval := e.cfg.EffectiveSnapshotInterval()
	src.open = false
	if interval == 0 {
		return cpu.Run(src.window - cpu.CycleCount())
	}
	for {
		res := cpu.RunUntilDecode(src.window-cpu.CycleCount(), cpu.DecodeEvents()+interval)
		if res.Termination != pipeline.TermBudget || cpu.CycleCount() >= src.window {
			return res
		}
		if !want(cpu) {
			src.open = true
			return res
		}
		src.snaps = append(src.snaps, cpu.Snapshot())
	}
}

// extend continues an open source's capture loop past its horizon until it
// holds the snapshot last resumes from. It restarts from the last snapshot
// (the cycle-0 image when there is none) and captures exactly the snapshots
// an uninterrupted pilot would have, since a restore resumes bit-for-bit.
func (e *engine) extend(src *source, last target) error {
	n := len(src.snaps)
	if !src.open || n > 0 && !last.precedes(src.snaps[n-1]) {
		return nil
	}
	cpu, err := e.pilotCPU(src)
	if err != nil {
		return err
	}
	if n > 0 {
		if err := cpu.Restore(src.snaps[n-1]); err != nil {
			return fmt.Errorf("pilot extension: %w", err)
		}
	}
	from := cpu.CycleCount()
	e.capture(src, cpu, func(cpu *pipeline.CPU) bool {
		// The snapshot this stop would take, by position only.
		return last.precedes(&pipeline.Snapshot{Cycle: cpu.CycleCount(), DecodeEvents: cpu.DecodeEvents(), Committed: cpu.CommittedInsts()})
	})
	e.prefix.extensionCycles += cpu.CycleCount() - from
	e.prefix.extensionSnaps += len(src.snaps) - n
	return nil
}

// nearest returns the index of the latest snapshot before t's fault, or -1.
func nearest(snaps []*pipeline.Snapshot, t target) int {
	return sort.Search(len(snaps), func(i int) bool { return !t.precedes(snaps[i]) }) - 1
}

// schedule is a pool's dispatch plan. Every item's resume snapshot on each
// source is resolved once and reference-counted, and items dispatch in
// resume order, so the snapshots and golden-log chunks behind the in-flight
// frontier can be released as the pool drains.
type schedule struct {
	srcs  []*source
	at    [][]int          // at[s][i]: item i's snapshot index in srcs[s], or -1 (cold)
	refs  [][]atomic.Int32 // items still to finish per snapshot
	order []int            // item indices in dispatch order
	floor []int64          // floor[k]: lowest resume commit of order[k:]
}

// plan resolves items against srcs and releases the snapshots no item
// resumes from.
func plan[T target](srcs []*source, items []T) *schedule {
	sch := &schedule{srcs: srcs, at: make([][]int, len(srcs)), refs: make([][]atomic.Int32, len(srcs))}
	for s, src := range srcs {
		sch.at[s] = make([]int, len(items))
		sch.refs[s] = make([]atomic.Int32, len(src.snaps))
		for i, t := range items {
			k := nearest(src.snaps, t)
			sch.at[s][i] = k
			if k >= 0 {
				sch.refs[s][k].Add(1)
			}
		}
	}
	// A target's snapshot index is monotone in its fault point on every
	// source, so this order is a resume order on each of them.
	sch.order = make([]int, len(items))
	for i := range sch.order {
		sch.order[i] = i
	}
	sort.SliceStable(sch.order, func(a, b int) bool {
		for s := range srcs {
			if x, y := sch.at[s][sch.order[a]], sch.at[s][sch.order[b]]; x != y {
				return x < y
			}
		}
		return false
	})
	sch.floor = make([]int64, len(items)+1)
	sch.floor[len(items)] = 1<<63 - 1
	for k := len(items) - 1; k >= 0; k-- {
		sch.floor[k] = sch.floor[k+1]
		for s, src := range srcs {
			c := int64(0)
			if j := sch.at[s][sch.order[k]]; j >= 0 {
				c = src.snaps[j].Committed
			}
			sch.floor[k] = min(sch.floor[k], c)
		}
	}
	for s, src := range srcs {
		for k := range src.snaps {
			if sch.refs[s][k].Load() == 0 {
				src.snaps[k] = nil
			}
		}
	}
	return sch
}

// retained returns the snapshots of src that some item resumes from.
func retained(src *source) []*pipeline.Snapshot {
	var out []*pipeline.Snapshot
	for _, s := range src.snaps {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// resume returns item i's snapshot on each source (nil: cold).
func (sch *schedule) resume(i int) ([]*pipeline.Snapshot, error) {
	from := make([]*pipeline.Snapshot, len(sch.srcs))
	for s, src := range sch.srcs {
		if j := sch.at[s][i]; j >= 0 {
			if from[s] = src.snaps[j]; from[s] == nil {
				return nil, fmt.Errorf("snapshot %d released before its last injection", j)
			}
		}
	}
	return from, nil
}

// done drops item i's snapshot references, releasing each snapshot with its
// last.
func (sch *schedule) done(i int) {
	for s, src := range sch.srcs {
		if j := sch.at[s][i]; j >= 0 && sch.refs[s][j].Add(-1) == 0 {
			src.snaps[j] = nil
		}
	}
}

// arena holds one worker's machines, one per source, each with its cycle-0
// image; Restore resets a machine bit-identically, so legs recycle it.
type arena struct {
	shard    uint32    // worker index (progress counter shard)
	ring     *obs.Ring // worker trace ring, nil when untraced
	machines map[*source]*machine
}

type machine struct {
	cpu  *pipeline.CPU
	zero *pipeline.Snapshot
}

// legRun is one leg's machine and what its run observed.
type legRun struct {
	cpu     *pipeline.CPU
	cur     *goldenCursor
	from    *pipeline.Snapshot // resume point
	resumed bool               // from is a snapshot, not the cycle-0 image
	full    bool               // the machine runs the full protocol
	res     pipeline.Result

	at       *pipeline.DetectionStamp // decode legs: machine time the fault fired
	fork     *pipeline.Snapshot       // observe leg's pre-fault capture for verify
	early    bool                     // decided before the window ended
	fellBack bool                     // a convergence proof failed
}

// leg is the engine's one way to run an injection. It resets the worker's
// machine for src to from (the cycle-0 image when nil), attaches a golden
// cursor there, clears the previous leg's hooks, and lets t arm its fault
// and run.
func (a *arena) leg(e *engine, src *source, t target, from *pipeline.Snapshot) (*legRun, error) {
	m := a.machines[src]
	if m == nil {
		pcfg := src.cfg
		if a.ring != nil {
			pcfg.Trace = a.ring
		}
		cpu, err := pipeline.New(e.prog, pcfg)
		if err != nil {
			return nil, err
		}
		m = &machine{cpu: cpu, zero: cpu.Snapshot()}
		if a.machines == nil {
			a.machines = make(map[*source]*machine)
		}
		a.machines[src] = m
	}
	r := &legRun{cpu: m.cpu, from: from, resumed: from != nil, full: src.cfg.ITRMode == core.ModeFull}
	if from == nil {
		r.from = m.zero
	}
	if err := m.cpu.Restore(r.from); err != nil {
		return nil, err
	}
	r.cur = e.stream.cursor(int(r.from.Committed))
	m.cpu.SetCommitObserver(r.cur.observe)
	m.cpu.SetCheckpointObserver(r.cur.checkpoint) // fires only when checkpointing
	m.cpu.SetFaultHook(nil)
	m.cpu.SetRenameFaultHook(nil)
	return r, t.run(e, r)
}

// pool runs do(a, i, from) for every item of sch on e.workers goroutines,
// each owning an arena, where from holds item i's snapshot per source.
// Items dispatch in resume order; a finished item releases its snapshots
// and lets the golden log drop what lies behind the oldest unfinished one.
// Results land by index, so they are identical at any width. It returns the
// lowest-indexed error, naming the program, seed and injection; a panicking
// item is such an error.
func pool[T target](e *engine, sch *schedule, items []T, do func(a *arena, i int, from []*pipeline.Snapshot) error) error {
	e.stream.release(sch.floor[0])
	workers := min(e.workers, len(items))
	errs := make([]error, len(items))
	work := make(chan int)
	var mu sync.Mutex
	finished, low := make([]bool, len(items)), 0
	run := func(a *arena, i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		from, err := sch.resume(i)
		if err != nil {
			return err
		}
		return do(a, i, from)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		a := &arena{shard: uint32(w)}
		if e.tracer != nil {
			a.ring = e.tracer.Ring(fmt.Sprintf("fault-worker-%d", w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				i := sch.order[k]
				errs[i] = run(a, i)
				sch.done(i)
				mu.Lock()
				finished[k] = true
				for low < len(items) && finished[low] {
					low++
				}
				floor := sch.floor[low]
				mu.Unlock()
				e.stream.release(floor)
			}
		}()
	}
	for k := range sch.order {
		work <- k
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s seed %#x injection %d %+v: %w", e.prog.Name, e.seed, i, items[i], err)
		}
	}
	return nil
}

// study runs one leg per fault on src and returns each leg's verdict.
func study[T target, V any](e *engine, src *source, faults []T, verdict func(r *legRun) V) ([]V, error) {
	out := make([]V, len(faults))
	return out, pool(e, plan([]*source{src}, faults), faults, func(a *arena, i int, from []*pipeline.Snapshot) error {
		r, err := a.leg(e, src, faults[i], from[0])
		if err == nil {
			out[i] = verdict(r)
		}
		return err
	})
}

// decodeSample draws a decode index in [space/20, space/2): past start-up,
// with at least half the window left to observe the fault.
func decodeSample(rng *stats.RNG, space int64) int64 {
	lo, hi := space/20, space/2
	return lo + int64(rng.Uint64n(uint64(hi-lo)))
}
