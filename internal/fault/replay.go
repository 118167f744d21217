package fault

import (
	"sync"

	"itr/internal/isa"
	"itr/internal/program"
)

// goldenEntry is one instruction of the fault-free reference execution: the
// PC the reference was at, and the outcome it computed there.
type goldenEntry struct {
	pc  uint64
	out isa.Outcome
}

// GoldenStream is the fault-free commit log computed once per study and
// shared read-only by every injection leg: a cursor walks it and compares
// each committed outcome, instead of a reference re-executing per run.
//
// The stream extends itself lazily under a mutex, since a faulty machine
// can commit more instructions inside its window than the pilot did.
// Extension is safe at any index: the reference executes from the program's
// decode table, which yields halt signals beyond the program image.
type GoldenStream struct {
	tab *program.DecodeTable

	mu     sync.Mutex // guards all below
	st     isa.ArchState
	chunks [][]goldenEntry // goldenChunk entries each, so growth never copies
	n      int             // entries computed
}

const goldenChunk = 1 << 14

// goldenView is an immutable prefix of the log: its first n entries.
type goldenView struct {
	chunks [][]goldenEntry
	n      int
}

func (v goldenView) at(i int) *goldenEntry { return &v.chunks[i/goldenChunk][i%goldenChunk] }

// NewGoldenStream builds an empty stream for prog, computed on demand.
func NewGoldenStream(prog *program.Program) *GoldenStream {
	s := &GoldenStream{tab: prog.DecodeTable()}
	s.st.Mem = isa.NewMemory()
	s.st.PC = prog.Entry
	return s
}

// ensure grows the log so index n exists and returns the current prefix;
// growth never writes inside an earlier view, so views need no lock.
func (s *GoldenStream) ensure(n int) goldenView {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; s.n <= n; s.n++ {
		if s.n%goldenChunk == 0 {
			s.chunks = append(s.chunks, make([]goldenEntry, goldenChunk))
		}
		e := &s.chunks[s.n/goldenChunk][s.n%goldenChunk]
		e.pc = s.st.PC
		s.st.ExecInto(&e.out, s.tab.Signals(e.pc), e.pc)
		s.st.ApplyRef(&e.out)
	}
	return goldenView{s.chunks, s.n}
}

// cursor returns a reader positioned at commit index start.
func (s *GoldenStream) cursor(start int) *goldenCursor {
	return &goldenCursor{s: s, view: s.ensure(start), idx: start}
}

// goldenCursor compares one machine's commit stream against the shared
// golden log: divergence is sticky from the first PC or architectural-effect
// mismatch.
type goldenCursor struct {
	s        *GoldenStream
	view     goldenView
	idx      int
	diverged bool

	mark         int // checkpointed position (valid when marked)
	markDiverged bool
	marked       bool
}

// observe is a pipeline.CommitObserver.
func (c *goldenCursor) observe(pc uint64, o *isa.Outcome) {
	if c.diverged {
		return
	}
	if c.idx >= c.view.n {
		c.view = c.s.ensure(c.idx)
	}
	e := c.view.at(c.idx)
	if pc != e.pc {
		c.diverged = true
		return
	}
	c.idx++
	if !o.SameArchEffect(&e.out) {
		c.diverged = true
	}
}

// checkpoint is a pipeline.CheckpointObserver: it marks the cursor's
// (index, diverged) position when the machine takes a checkpoint and rewinds
// to the mark when the machine rolls back to it.
func (c *goldenCursor) checkpoint(taken bool) {
	switch {
	case taken:
		c.mark, c.markDiverged, c.marked = c.idx, c.diverged, true
	case c.marked:
		c.idx, c.diverged = c.mark, c.markDiverged
	}
}
