package fault

import (
	"sync"
	"unsafe"

	"itr/internal/isa"
	"itr/internal/program"
)

// goldenCols is one chunk of the fault-free reference execution, stored by
// column and holding only what SameArchEffect compares and ApplyRef applies:
// 26 bytes per committed instruction. Entry i's own PC is entry i-1's next
// (the program entry for i = 0). val is the register value or the store
// data, since ExecInto never produces both for one instruction.
type goldenCols struct {
	next [goldenChunk]uint64
	val  [goldenChunk]uint64
	addr [goldenChunk]uint64
	meta [goldenChunk]uint16
}

// The meta column packs the write flags, the destination register and the
// store width.
const (
	metaRegWrite uint16 = 1 << iota
	metaRegFP
	metaMemWrite
	metaHalt
	metaRegShift  = 4 // 5-bit Reg
	metaSizeShift = 9 // 4-bit MemWSize (at most 8)
)

const goldenChunk = 1 << 14

// goldenChunkBytes is the resident size of one chunk of the log.
const goldenChunkBytes = int64(unsafe.Sizeof(goldenCols{}))

// put packs outcome o as entry j.
func (c *goldenCols) put(j int, o *isa.Outcome) {
	if o.RegWrite && o.MemWrite {
		panic("fault: golden outcome writes both a register and memory")
	}
	m := uint16(0)
	if o.RegWrite {
		m |= metaRegWrite | uint16(o.Reg&0x1f)<<metaRegShift
		if o.RegFP {
			m |= metaRegFP
		}
		c.val[j] = o.Value
	}
	if o.MemWrite {
		m |= metaMemWrite | uint16(o.MemWSize&0xf)<<metaSizeShift
		c.val[j], c.addr[j] = o.MemWData, o.MemAddr
	}
	if o.Halt {
		m |= metaHalt
	}
	c.next[j], c.meta[j] = o.NextPC, m
}

// outcome unpacks entry j into o.
func (c *goldenCols) outcome(j int, o *isa.Outcome) {
	m := c.meta[j]
	*o = isa.Outcome{NextPC: c.next[j], Halt: m&metaHalt != 0}
	if m&metaRegWrite != 0 {
		o.RegWrite, o.RegFP, o.Reg, o.Value = true, m&metaRegFP != 0, isa.RegID(m>>metaRegShift&0x1f), c.val[j]
	}
	if m&metaMemWrite != 0 {
		o.MemWrite, o.MemAddr, o.MemWData, o.MemWSize = true, c.addr[j], c.val[j], uint8(m>>metaSizeShift&0xf)
	}
}

// same is o.SameArchEffect against entry j, read straight from the columns.
func (c *goldenCols) same(j int, o *isa.Outcome) bool {
	m := c.meta[j]
	if o.NextPC != c.next[j] || o.Halt != (m&metaHalt != 0) ||
		o.RegWrite != (m&metaRegWrite != 0) || o.MemWrite != (m&metaMemWrite != 0) {
		return false
	}
	if o.RegWrite && (o.Reg != isa.RegID(m>>metaRegShift&0x1f) || o.RegFP != (m&metaRegFP != 0) || o.Value != c.val[j]) {
		return false
	}
	return !o.MemWrite || o.MemAddr == c.addr[j] && o.MemWData == c.val[j] && o.MemWSize == uint8(m>>metaSizeShift&0xf)
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
	tab   *program.DecodeTable
	entry uint64

	mu     sync.Mutex // guards all below
	st     isa.ArchState
	out    isa.Outcome   // ExecInto scratch
	chunks []*goldenCols // goldenChunk entries each, so growth never copies
	n      int           // entries computed
}

// goldenView is an immutable prefix of the log: its first n entries.
type goldenView struct {
	chunks []*goldenCols
	n      int
	entry  uint64
}

// col locates entry i: its chunk and its index there.
func (v goldenView) col(i int) (*goldenCols, int) { return v.chunks[i/goldenChunk], i % goldenChunk }

// pc is the PC the reference executed entry i at.
func (v goldenView) pc(i int) uint64 {
	if i == 0 {
		return v.entry
	}
	c, j := v.col(i - 1)
	return c.next[j]
}

// NewGoldenStream builds an empty stream for prog, computed on demand.
func NewGoldenStream(prog *program.Program) *GoldenStream {
	s := &GoldenStream{tab: prog.DecodeTable(), entry: prog.Entry}
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
		j := s.n % goldenChunk
		if j == 0 {
			s.chunks = append(s.chunks, new(goldenCols))
		}
		s.st.ExecInto(&s.out, s.tab.Signals(s.st.PC), s.st.PC)
		s.st.ApplyRef(&s.out)
		s.chunks[len(s.chunks)-1].put(j, &s.out)
	}
	return goldenView{s.chunks, s.n, s.entry}
}

// residentBytes is the log's size in memory: whole chunks, allocated as it
// grows.
func (s *GoldenStream) residentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.chunks)) * goldenChunkBytes
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
	if pc != c.view.pc(c.idx) {
		c.diverged = true
		return
	}
	cols, j := c.view.col(c.idx)
	c.idx++
	if !cols.same(j, o) {
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
