// Package directory implements the full-map directory of the simulated
// CC-NUMA machine. Each memory block has a home node holding a directory
// entry: presence bits for all caches, the home state machine of the
// paper's Figure 1 (Uncached, Shared, Dirty, Load-Store/exclusive), and the
// per-block tag state used by the protocol extensions — the last-reader
// (LR) field and LS bit of the LS protocol (Section 3.1), and the
// last-writer field and migratory bit of the AD protocol (Stenström et
// al.).
package directory

import (
	"fmt"
	"math/bits"

	"lsnuma/internal/memory"
)

// bitsPerWord is the width of one presence word in a Bitset.
const bitsPerWord = 64

// HomeState is the directory (home-node) state of a memory block.
type HomeState uint8

const (
	// Uncached: no cache holds the block; memory is current.
	Uncached HomeState = iota
	// Shared: one or more caches hold read-only copies; memory is current.
	Shared
	// Dirty: exactly one cache holds the block Modified (acquired through
	// a write); memory is stale.
	Dirty
	// Excl: exactly one cache holds the block through an exclusive read
	// grant (the Load-Store state of Fig. 1, also used for AD's migratory
	// grants). The holder may still be clean (LStemp) or may have
	// silently promoted to Modified — the saved ownership acquisition.
	Excl
)

func (s HomeState) String() string {
	switch s {
	case Uncached:
		return "Uncached"
	case Shared:
		return "Shared"
	case Dirty:
		return "Dirty"
	case Excl:
		return "Load-Store"
	default:
		return fmt.Sprintf("HomeState(%d)", uint8(s))
	}
}

// Bitset is a set of node IDs (presence bits). The first 64 nodes live in
// an inline word so machines up to 64 CPUs pay nothing extra; larger
// machines lazily grow an extension array holding one word per further 64
// nodes. The zero value is the empty set.
//
// Copies made by plain assignment share the extension storage, so a copied
// Bitset must only be read, never mutated — the engine mutates sharer sets
// exclusively through the canonical Entry in the directory, and clears them
// in place with Clear rather than by assignment.
type Bitset struct {
	lo  uint64
	ext []uint64
}

// Of returns the set containing exactly the given nodes.
func Of(ns ...memory.NodeID) Bitset {
	var b Bitset
	for _, n := range ns {
		b.Add(n)
	}
	return b
}

// Add inserts node n.
func (b *Bitset) Add(n memory.NodeID) {
	if uint(n) < bitsPerWord {
		b.lo |= 1 << uint(n)
		return
	}
	w := uint(n)/bitsPerWord - 1
	if w >= uint(len(b.ext)) {
		b.ext = append(b.ext, make([]uint64, w+1-uint(len(b.ext)))...)
	}
	b.ext[w] |= 1 << (uint(n) % bitsPerWord)
}

// Remove deletes node n.
func (b *Bitset) Remove(n memory.NodeID) {
	if uint(n) < bitsPerWord {
		b.lo &^= 1 << uint(n)
		return
	}
	if w := uint(n)/bitsPerWord - 1; w < uint(len(b.ext)) {
		b.ext[w] &^= 1 << (uint(n) % bitsPerWord)
	}
}

// Clear empties the set in place, keeping the extension storage.
func (b *Bitset) Clear() {
	b.lo = 0
	for i := range b.ext {
		b.ext[i] = 0
	}
}

// Has reports whether node n is present.
func (b Bitset) Has(n memory.NodeID) bool {
	if uint(n) < bitsPerWord {
		return b.lo&(1<<uint(n)) != 0
	}
	w := uint(n)/bitsPerWord - 1
	return w < uint(len(b.ext)) && b.ext[w]&(1<<(uint(n)%bitsPerWord)) != 0
}

// Count returns the number of nodes present.
func (b Bitset) Count() int {
	c := bits.OnesCount64(b.lo)
	for _, w := range b.ext {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set is empty.
func (b Bitset) Empty() bool {
	if b.lo != 0 {
		return false
	}
	for _, w := range b.ext {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have the same members.
func (b Bitset) Equal(o Bitset) bool {
	if b.lo != o.lo {
		return false
	}
	long, short := b.ext, o.ext
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range long {
		var ow uint64
		if i < len(short) {
			ow = short[i]
		}
		if w != ow {
			return false
		}
	}
	return true
}

// Other returns the single member that is not n, if the set is exactly
// {n, other}; otherwise NoNode.
func (b Bitset) Other(n memory.NodeID) memory.NodeID {
	if b.Count() != 2 || !b.Has(n) {
		return memory.NoNode
	}
	other := memory.NoNode
	b.ForEach(func(m memory.NodeID) {
		if m != n {
			other = m
		}
	})
	return other
}

// ForEach calls fn for every member in ascending order.
func (b Bitset) ForEach(fn func(memory.NodeID)) {
	v := b.lo
	for v != 0 {
		fn(memory.NodeID(bits.TrailingZeros64(v)))
		v &= v - 1
	}
	for i, w := range b.ext {
		base := (i + 1) * bitsPerWord
		for w != 0 {
			fn(memory.NodeID(base + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// String renders the set as {n1,n2,...} for diagnostics.
func (b Bitset) String() string {
	var sb []byte
	sb = append(sb, '{')
	first := true
	b.ForEach(func(n memory.NodeID) {
		if !first {
			sb = append(sb, ',')
		}
		first = false
		sb = fmt.Appendf(sb, "%d", n)
	})
	return string(append(sb, '}'))
}

// Entry is the directory state of one memory block.
type Entry struct {
	State   HomeState
	Sharers Bitset        // valid when State == Shared
	Owner   memory.NodeID // valid when State == Dirty or Excl

	// LS protocol tag state (Section 3.1).
	LR memory.NodeID // last reader: updated on every global read
	LS bool          // block tagged load-store

	// AD protocol tag state (Stenström et al.).
	LastWriter memory.NodeID
	Migratory  bool

	// Hysteresis counters for the §5.5 ablation (two-step deep tagging
	// and de-tagging).
	TagCount   uint8
	DetagCount uint8

	// Ovf marks a limited-pointer entry whose sharer count exceeded the
	// pointer capacity: the wire format has degraded to broadcast for this
	// block until the sharer set is next cleared. Sticky by design —
	// evicted pointers cannot be reconstructed from i pointers. The exact
	// sharer set above remains simulation truth regardless; Ovf only
	// drives the architectural extra-invalidation accounting.
	Ovf bool
}

// Holders returns the set of caches holding the block in any state.
func (e *Entry) Holders() Bitset {
	switch e.State {
	case Shared:
		return e.Sharers
	case Dirty, Excl:
		var b Bitset
		if e.Owner != memory.NoNode {
			b.Add(e.Owner)
		}
		return b
	default:
		return Bitset{}
	}
}

// Holds reports whether node n caches the block according to the directory.
func (e *Entry) Holds(n memory.NodeID) bool { return e.Holders().Has(n) }

// CheckInvariant validates the entry's structural invariants.
func (e *Entry) CheckInvariant() error {
	switch e.State {
	case Uncached:
		if !e.Sharers.Empty() {
			return fmt.Errorf("directory: Uncached entry with sharers %v", e.Sharers)
		}
	case Shared:
		if e.Sharers.Empty() {
			return fmt.Errorf("directory: Shared entry with no sharers")
		}
	case Dirty, Excl:
		if e.Owner == memory.NoNode {
			return fmt.Errorf("directory: %v entry with no owner", e.State)
		}
		if !e.Sharers.Empty() {
			return fmt.Errorf("directory: %v entry with sharers %v", e.State, e.Sharers)
		}
	default:
		return fmt.Errorf("directory: invalid state %d", e.State)
	}
	return nil
}

// minEntriesPerPage bounds directory pages from below so that large
// simulated block sizes (few blocks per physical page) still amortize the
// page allocation, and so a page's presence bitset is always at least one
// whole uint64 word.
const minEntriesPerPage = 256

// page is one lazily allocated directory page: a dense array of Entry
// values with a presence bitset. Pages are fixed-size once allocated, so
// &entries[i] pointers handed out by Directory.Entry stay stable for the
// lifetime of the directory (only the page spine grows).
type page struct {
	present []uint64
	entries []Entry
}

// Directory holds the entries of all blocks, created lazily. A real
// machine banks the directory per home node; for simulation a single table
// indexed by block suffices — home-node attribution happens in the network
// and timing model.
//
// The storage is data-oriented: Entry values live in dense,
// address-indexed pages sized off the layout (at least minEntriesPerPage
// blocks per page), with presence tracked by a uint64 bitset per page.
// The common-case lookup is two shifts and a bounds check — no hashing, no
// per-entry allocation, no pointer chasing through map buckets.
type Directory struct {
	layout     memory.Layout
	init       func(*Entry) // protocol hook: default tag state for new blocks
	blockShift uint         // log2(layout.BlockSize)
	pages      []*page
	pageShift  uint   // log2(entries per page)
	pageMask   uint64 // entries per page - 1
	count      int
}

// New returns an empty directory. The init hook, if non-nil, runs on each
// freshly created entry (used by the §5.5 default-tagging ablation).
func New(layout memory.Layout, init func(*Entry)) *Directory {
	per := layout.PageSize / layout.BlockSize
	if per < minEntriesPerPage {
		per = minEntriesPerPage
	}
	return &Directory{
		layout:     layout,
		init:       init,
		blockShift: uint(bits.TrailingZeros64(layout.BlockSize)),
		pageShift:  uint(bits.TrailingZeros64(per)),
		pageMask:   per - 1,
	}
}

// Entry returns the directory entry for the block containing addr,
// creating it in the Uncached state on first touch. The returned pointer
// stays valid and keeps aliasing the same block.
func (d *Directory) Entry(block memory.Addr) *Entry {
	idx := uint64(block) >> d.blockShift
	pi := idx >> d.pageShift
	if pi >= uint64(len(d.pages)) {
		d.pages = append(d.pages, make([]*page, pi+1-uint64(len(d.pages)))...)
	}
	pg := d.pages[pi]
	if pg == nil {
		per := d.pageMask + 1
		pg = &page{present: make([]uint64, per/64), entries: make([]Entry, per)}
		d.pages[pi] = pg
	}
	off := idx & d.pageMask
	e := &pg.entries[off]
	w, bit := off>>6, off&63
	if pg.present[w]&(1<<bit) == 0 {
		pg.present[w] |= 1 << bit
		e.Owner, e.LR, e.LastWriter = memory.NoNode, memory.NoNode, memory.NoNode
		if d.init != nil {
			d.init(e)
		}
		d.count++
	}
	return e
}

// Lookup returns the directory entry for the block containing addr if one
// exists. Unlike Entry it never creates an entry, so invariant checkers
// can probe the directory without perturbing it.
func (d *Directory) Lookup(block memory.Addr) (*Entry, bool) {
	idx := uint64(block) >> d.blockShift
	pi := idx >> d.pageShift
	if pi >= uint64(len(d.pages)) || d.pages[pi] == nil {
		return nil, false
	}
	pg := d.pages[pi]
	off := idx & d.pageMask
	if pg.present[off>>6]&(1<<(off&63)) == 0 {
		return nil, false
	}
	return &pg.entries[off], true
}

// Len returns the number of blocks with directory state.
func (d *Directory) Len() int { return d.count }

// ForEach visits every entry in ascending block order. The ordering is a
// contract: repro-bundle snapshots, check reports and fault-target
// selection iterate the directory and must be deterministic across runs.
func (d *Directory) ForEach(fn func(blockIndex uint64, e *Entry)) {
	for pi, pg := range d.pages {
		if pg == nil {
			continue
		}
		base := uint64(pi) << d.pageShift
		for w, word := range pg.present {
			for word != 0 {
				off := uint64(w)<<6 + uint64(bits.TrailingZeros64(word))
				fn(base+off, &pg.entries[off])
				word &= word - 1
			}
		}
	}
}
