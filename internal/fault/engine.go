package fault

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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
	logged  int64 // pilot commits; pool logs them once pruned snapshots are collected
	workers int

	tracer          *obs.Tracer // Figure 8 only, like the fields below
	observe, verify *source
	oracle          *SigOracle
}

func newEngine(prog *program.Program, cfg Config, seed uint64) *engine {
	return &engine{prog: prog, cfg: cfg, seed: seed, stream: NewGoldenStream(prog), workers: runtime.GOMAXPROCS(0)}
}

// source is one machine configuration legs run on, with the pilot snapshots
// that restore into it (ascending; none means every leg starts cold).
type source struct {
	cfg   pipeline.Config
	snaps []*pipeline.Snapshot
}

// pilot runs prog fault-free under pcfg for up to cycles cycles, capturing a
// snapshot every snapshot-interval decode events, and returns their source
// and the fault-free Result.
func (e *engine) pilot(pcfg pipeline.Config, cycles int64) (*source, pipeline.Result, error) {
	run := pcfg
	if e.tracer != nil {
		run.Trace = e.tracer.Ring("fault-pilot")
	}
	cpu, err := pipeline.New(e.prog, run)
	if err != nil {
		return nil, pipeline.Result{}, fmt.Errorf("pilot: %w", err)
	}
	src := &source{cfg: pcfg}
	interval := e.cfg.EffectiveSnapshotInterval()
	var res pipeline.Result
	for next := interval; ; next = cpu.DecodeEvents() + interval {
		if interval == 0 {
			next = -1
		}
		res = cpu.RunUntilDecode(cycles-cpu.CycleCount(), next)
		if res.Termination != pipeline.TermBudget || cpu.CycleCount() >= cycles {
			break
		}
		src.snaps = append(src.snaps, cpu.Snapshot())
	}
	e.logged = max(e.logged, res.Committed)
	return src, res, nil
}

// nearest returns the index of the latest snapshot before t's fault, or -1.
func nearest(snaps []*pipeline.Snapshot, t target) int {
	return sort.Search(len(snaps), func(i int) bool { return !t.precedes(snaps[i]) }) - 1
}

// prune drops the snapshots no target resumes from.
func prune[T target](src *source, ts []T) {
	used := make(map[int]bool)
	for _, t := range ts {
		used[nearest(src.snaps, t)] = true
	}
	var kept []*pipeline.Snapshot
	for i, s := range src.snaps {
		if used[i] {
			kept = append(kept, s)
		}
	}
	src.snaps = kept
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
// machine for src to from — when nil, to the latest snapshot of src before
// t's fault point, else the cycle-0 image — attaches a golden cursor there,
// clears the previous leg's hooks, and lets t arm its fault and run.
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
	r := &legRun{cpu: m.cpu, from: from, resumed: true, full: src.cfg.ITRMode == core.ModeFull}
	if from == nil {
		if i := nearest(src.snaps, t); i >= 0 {
			r.from = src.snaps[i]
		} else {
			r.from, r.resumed = m.zero, false
		}
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

// pool runs do(a, i) for every item on e.workers goroutines, each owning an
// arena; results land by index, so they are identical at any width. It
// returns the lowest-indexed error, naming the program, seed and injection.
func pool[T target](e *engine, items []T, do func(a *arena, i int) error) error {
	if e.logged > 0 {
		runtime.GC() // the pruned snapshot series and the log are never resident together
		e.stream.ensure(int(e.logged) - 1)
	}
	workers := min(e.workers, len(items))
	errs := make([]error, len(items))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		a := &arena{shard: uint32(w)}
		if e.tracer != nil {
			a.ring = e.tracer.Ring(fmt.Sprintf("fault-worker-%d", w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = do(a, i)
			}
		}()
	}
	for i := range items {
		work <- i
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
	prune(src, faults)
	out := make([]V, len(faults))
	return out, pool(e, faults, func(a *arena, i int) error {
		r, err := a.leg(e, src, faults[i], nil)
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
