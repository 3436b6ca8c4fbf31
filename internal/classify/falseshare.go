package classify

import (
	"math/bits"

	"lsnuma/internal/memory"
)

// MissKind classifies a data miss for the Table 4 analysis.
type MissKind uint8

const (
	// ColdMiss: the processor touches the block for the first time.
	ColdMiss MissKind = iota
	// ReplacementMiss: the processor's previous copy was replaced
	// (capacity/conflict), not invalidated.
	ReplacementMiss
	// TrueSharingMiss: the copy was invalidated and, during the new
	// residency, the processor used at least one word written by another
	// processor since it lost the block — an essential miss.
	TrueSharingMiss
	// FalseSharingMiss: the copy was invalidated but the processor never
	// used a word modified by another processor — the miss exists only
	// because the block is wider than a word (Dubois et al.).
	FalseSharingMiss
	// NumMissKinds is the number of miss kinds.
	NumMissKinds
)

func (k MissKind) String() string {
	switch k {
	case ColdMiss:
		return "cold"
	case ReplacementMiss:
		return "replacement"
	case TrueSharingMiss:
		return "true-sharing"
	case FalseSharingMiss:
		return "false-sharing"
	default:
		return "unknown"
	}
}

// Residency states of one CPU for one block: what the Dubois
// classification must remember between events. A CPU that never held the
// block takes a cold miss next; once its copy is gone, how the copy ended
// decides the kind of the next miss; while it holds the block, the state
// says whether the miss that opened the residency is still to be
// classified and, if so, whether it has used a remotely written word.
// States from fsClassified on are resident.
const (
	fsNeverHeld   uint8 = iota // no copy yet
	fsReplaced                 // the last copy was replaced
	fsInvalidated              // the last copy was invalidated
	fsClassified               // resident; opened by a cold or replacement miss, already counted
	fsCoherent                 // resident; opened by a coherence miss, no remotely written word used yet
	fsTrueSharing              // resident; opened by a coherence miss that used a remotely written word
)

// fsStateBits is the width of one packed residency state, two to a byte.
const fsStateBits = 4

// fsPageSlots bounds the (block, CPU) slots in one classifier page.
// Blocks per page is the largest power of two within it (at least one),
// so a page's per-CPU state stays within 8.5 KB up to 1024 CPUs: 256
// blocks at 4 CPUs, one block at 1024.
const fsPageSlots = 1024

// fsPage holds the classifier state of a run of consecutive blocks in
// pointer-free arrays, the way seqPage holds the sequence detector's:
// a lookup is two shifts and no hashing, a page is five allocations for
// many blocks, and the garbage collector never scans the arrays. Zero is
// the untouched state: a word with write time 0 was never written (its
// writer is then never read) and state 0 is fsNeverHeld, so a page needs
// no per-block initialization.
//
// Every miss writes a residency state, so states are packed two to a
// byte. Loss times are written only when a copy is lost and are kept in
// their own array: on a large machine most (block, CPU) pairs never lose
// a copy, and the memory holding their loss times is never touched.
type fsPage struct {
	wordTime   []uint64        // logical time of the last write, per (block, word)
	wordWriter []memory.NodeID // last writer, per (block, word)
	lostTime   []uint64        // logical time the CPU last lost the block, per (block, CPU)
	states     []uint8         // residency state, per (block, CPU), packed
}

func (pg *fsPage) state(slot int) uint8 {
	return pg.states[slot/2] >> (slot % 2 * fsStateBits) & (1<<fsStateBits - 1)
}

func (pg *fsPage) setState(slot int, st uint8) {
	shift := slot % 2 * fsStateBits
	b := &pg.states[slot/2]
	*b = *b&^((1<<fsStateBits-1)<<shift) | st<<shift
}

// FalseSharing is the Dubois-style word-granularity miss classifier. The
// engine reports every access (for word-use tracking), every miss (to open
// a residency) and every loss of a copy (invalidation or replacement, to
// close and classify it). Classification is deferred to the close of the
// residency (or Finalize), when it is known whether the processor ever
// consumed a remotely written word.
type FalseSharing struct {
	layout    memory.Layout
	cpus      int
	words     int  // words per block
	pageShift uint // log2(blocks per page)
	pages     []*fsPage
	clock     uint64

	Misses [NumMissKinds]uint64
}

// NewFalseSharing returns a classifier for the given layout and processor
// count.
func NewFalseSharing(layout memory.Layout, cpus int) *FalseSharing {
	perPage := fsPageSlots / cpus
	if perPage < 1 {
		perPage = 1
	}
	return &FalseSharing{
		layout:    layout,
		cpus:      cpus,
		words:     layout.WordsPerBlock(),
		pageShift: uint(bits.Len(uint(perPage)) - 1),
	}
}

// page returns the page holding the block that contains addr, allocating
// it on first touch, and the block's offset within the page.
func (f *FalseSharing) page(addr memory.Addr) (*fsPage, int) {
	idx := f.layout.BlockIndex(addr)
	pi := idx >> f.pageShift
	if pi >= uint64(len(f.pages)) {
		f.pages = append(f.pages, make([]*fsPage, pi+1-uint64(len(f.pages)))...)
	}
	pg := f.pages[pi]
	if pg == nil {
		blocks := 1 << f.pageShift
		pg = &fsPage{
			wordTime:   make([]uint64, blocks*f.words),
			wordWriter: make([]memory.NodeID, blocks*f.words),
			lostTime:   make([]uint64, blocks*f.cpus),
			states:     make([]uint8, (blocks*f.cpus+1)/2),
		}
		f.pages[pi] = pg
	}
	return pg, int(idx & (1<<f.pageShift - 1))
}

// OnMiss opens a residency: cpu missed on the block containing addr. Must
// be called before the corresponding OnAccess for the missing access.
// Cold and replacement misses are classified here; a coherence miss waits
// for its residency to close.
func (f *FalseSharing) OnMiss(cpu memory.NodeID, block memory.Addr) {
	pg, b := f.page(block)
	slot := b*f.cpus + int(cpu)
	switch pg.state(slot) {
	case fsNeverHeld:
		f.Misses[ColdMiss]++
		pg.setState(slot, fsClassified)
	case fsReplaced:
		f.Misses[ReplacementMiss]++
		pg.setState(slot, fsClassified)
	case fsInvalidated:
		pg.setState(slot, fsCoherent)
	}
	// Otherwise already resident (shouldn't happen; be tolerant).
}

// OnAccess records that cpu touched words [addr, addr+size) of a resident
// block. For stores it also bumps the word versions. The kind of sharing
// is decided here: touching a word written by another processor since the
// block was last lost proves the current residency essential.
func (f *FalseSharing) OnAccess(cpu memory.NodeID, addr memory.Addr, size uint32, kind memory.Kind) {
	pg, b := f.page(addr)
	first := f.layout.WordInBlock(addr)
	last := f.layout.WordInBlock(addr + memory.Addr(size) - 1)
	times := pg.wordTime[b*f.words : (b+1)*f.words]
	writers := pg.wordWriter[b*f.words : (b+1)*f.words]

	if slot := b*f.cpus + int(cpu); pg.state(slot) == fsCoherent {
		lost := pg.lostTime[slot]
		for w := first; w <= last; w++ {
			if times[w] > lost && writers[w] != cpu {
				pg.setState(slot, fsTrueSharing)
				break
			}
		}
	}
	if kind == memory.Store {
		f.clock++
		for w := first; w <= last; w++ {
			times[w] = f.clock
			writers[w] = cpu
		}
	}
}

// OnLose closes cpu's residency of the block: byInvalidation tells whether
// the copy was invalidated by the coherence protocol (as opposed to being
// replaced for capacity/conflict reasons). Coherence-miss residencies are
// classified true/false sharing at this point.
//
// Ordering contract: for an invalidation caused by another processor's
// store, OnLose must be called before that store's OnAccess — exactly the
// order the protocol performs them (invalidations complete before the
// write). This guarantees the causing write is timestamped after the loss
// and therefore counts as new to the losing processor.
func (f *FalseSharing) OnLose(cpu memory.NodeID, block memory.Addr, byInvalidation bool) {
	pg, b := f.page(block)
	slot := b*f.cpus + int(cpu)
	st := pg.state(slot)
	if st < fsClassified {
		return // not resident
	}
	f.classify(st)
	if byInvalidation {
		pg.setState(slot, fsInvalidated)
	} else {
		pg.setState(slot, fsReplaced)
	}
	f.clock++
	pg.lostTime[slot] = f.clock
}

// classify counts the coherence miss that opened a closing residency in
// state st; cold and replacement misses were counted when they opened.
func (f *FalseSharing) classify(st uint8) {
	switch st {
	case fsCoherent:
		f.Misses[FalseSharingMiss]++
	case fsTrueSharing:
		f.Misses[TrueSharingMiss]++
	}
}

// Finalize closes all open residencies at the end of the simulation so
// their misses are classified. It leaves each closed residency not
// resident: invalidated if a coherence miss opened it, replaced
// otherwise.
func (f *FalseSharing) Finalize() {
	for _, pg := range f.pages {
		if pg == nil {
			continue
		}
		for slot := 0; slot < 2*len(pg.states); slot++ {
			switch st := pg.state(slot); st {
			case fsClassified:
				pg.setState(slot, fsReplaced)
			case fsCoherent, fsTrueSharing:
				f.classify(st)
				pg.setState(slot, fsInvalidated)
			}
		}
	}
}

// TotalMisses returns the total number of classified data misses.
func (f *FalseSharing) TotalMisses() uint64 {
	var n uint64
	for _, v := range f.Misses {
		n += v
	}
	return n
}

// FalseSharingFrac returns the fraction of all data misses (including
// cold misses) that are false-sharing misses.
func (f *FalseSharing) FalseSharingFrac() float64 {
	total := f.TotalMisses()
	if total == 0 {
		return 0
	}
	return float64(f.Misses[FalseSharingMiss]) / float64(total)
}

// SteadyStateFrac returns Table 4's metric with cold misses excluded: the
// paper measures billions of instructions, so its miss population is
// steady-state; simulation runs here are orders of magnitude shorter and
// cold misses would otherwise swamp the denominator.
func (f *FalseSharing) SteadyStateFrac() float64 {
	total := f.TotalMisses() - f.Misses[ColdMiss]
	if total == 0 {
		return 0
	}
	return float64(f.Misses[FalseSharingMiss]) / float64(total)
}
