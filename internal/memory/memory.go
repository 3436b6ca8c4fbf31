// Package memory defines the simulated physical address space of the
// multiprocessor: addresses, nodes, access records, page-to-home placement
// and block arithmetic.
//
// The simulated machine is word-addressable at 4-byte granularity (the
// paper's platform is SimICS/sun4m, an ILP32 SPARC machine). Physical pages
// are distributed round-robin among the nodes, as in the paper's Section
// 4.2.
package memory

import (
	"fmt"
	"math/bits"
)

// WordSize is the size in bytes of the simulated machine word.
const WordSize = 4

// DefaultPageSize is the simulated physical page size in bytes.
const DefaultPageSize = 4096

// Addr is a byte address in the simulated shared physical address space.
type Addr uint64

// NodeID identifies a processor node. Nodes are numbered 0..N-1.
type NodeID int32

// NoNode is the sentinel for "no node" (e.g. no owner, no last reader).
const NoNode NodeID = -1

// Kind is the kind of a memory access.
type Kind uint8

const (
	// Load is a read access.
	Load Kind = iota
	// Store is a write access.
	Store
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Source classifies which part of the workload issued an access. The paper's
// Table 2 breaks down load-store sequence occurrence by application (MySQL),
// system libraries, and operating system; our workloads tag every access so
// the same split can be measured.
type Source uint8

const (
	// SrcApp marks accesses issued by application code.
	SrcApp Source = iota
	// SrcLib marks accesses issued by system-library code (allocator,
	// pthread internals, ...).
	SrcLib
	// SrcOS marks accesses issued by operating-system code (scheduler,
	// timer, ...).
	SrcOS
	// NumSources is the number of source classes.
	NumSources
)

func (s Source) String() string {
	switch s {
	case SrcApp:
		return "app"
	case SrcLib:
		return "lib"
	case SrcOS:
		return "os"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// Access is a single memory access issued by a simulated processor.
type Access struct {
	CPU    NodeID
	Addr   Addr
	Size   uint32 // bytes; must not cross a block boundary after splitting
	Kind   Kind
	Source Source
}

// Layout describes the physical address space organisation: page size and
// the number of nodes over which pages are interleaved round-robin.
type Layout struct {
	PageSize  uint64
	BlockSize uint64
	Nodes     int
}

// NewLayout validates and returns a Layout. PageSize and BlockSize must be
// powers of two, BlockSize must divide PageSize, and nodes must be >= 1.
func NewLayout(pageSize, blockSize uint64, nodes int) (Layout, error) {
	if nodes < 1 {
		return Layout{}, fmt.Errorf("memory: layout needs at least one node, got %d", nodes)
	}
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		return Layout{}, fmt.Errorf("memory: page size %d is not a power of two", pageSize)
	}
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return Layout{}, fmt.Errorf("memory: block size %d is not a power of two", blockSize)
	}
	if blockSize > pageSize {
		return Layout{}, fmt.Errorf("memory: block size %d exceeds page size %d", blockSize, pageSize)
	}
	return Layout{PageSize: pageSize, BlockSize: blockSize, Nodes: nodes}, nil
}

// Home returns the home node of the page containing addr. Pages are
// assigned round-robin, as in the paper's architectural model.
func (l Layout) Home(addr Addr) NodeID {
	return NodeID((uint64(addr) >> uint(bits.TrailingZeros64(l.PageSize))) % uint64(l.Nodes))
}

// Block returns the block-aligned address of the block containing addr.
func (l Layout) Block(addr Addr) Addr {
	return addr &^ Addr(l.BlockSize-1)
}

// BlockIndex returns a dense index for the block containing addr, suitable
// for use as a map key or table index. BlockSize is a power of two
// (NewLayout validates), so the division compiles to a shift rather than a
// hardware divide — this is on the simulator's per-access hot path.
func (l Layout) BlockIndex(addr Addr) uint64 {
	return uint64(addr) >> uint(bits.TrailingZeros64(l.BlockSize))
}

// WordInBlock returns the word offset of addr within its block.
func (l Layout) WordInBlock(addr Addr) int {
	return int((uint64(addr) & (l.BlockSize - 1)) / WordSize)
}

// WordsPerBlock returns the number of machine words per block.
func (l Layout) WordsPerBlock() int {
	return int(l.BlockSize / WordSize)
}

// SameBlock reports whether two addresses fall in the same block.
func (l Layout) SameBlock(a, b Addr) bool {
	return l.Block(a) == l.Block(b)
}

// AppendSplitByBlock appends the per-block sub-ranges of [addr, addr+size)
// to dst and returns the extended slice. Most accesses fit in one block;
// misaligned multi-word accesses may span two or more. Callers on hot
// paths pass a reusable buffer (dst[:0]) so the common case allocates
// nothing.
func (l Layout) AppendSplitByBlock(dst []Access, addr Addr, size uint32) []Access {
	if size == 0 {
		return dst
	}
	if l.SameBlock(addr, addr+Addr(size)-1) {
		return append(dst, Access{Addr: addr, Size: size})
	}
	cur := addr
	remaining := uint64(size)
	for remaining > 0 {
		blockEnd := l.Block(cur) + Addr(l.BlockSize)
		n := uint64(blockEnd - cur)
		if n > remaining {
			n = remaining
		}
		dst = append(dst, Access{Addr: cur, Size: uint32(n)})
		cur += Addr(n)
		remaining -= n
	}
	return dst
}

// Allocator hands out non-overlapping address ranges from the simulated
// physical address space. Allocations are aligned at least to the machine
// word; callers may request stronger alignment (e.g. block or page) to
// control sharing granularity.
type Allocator struct {
	layout   Layout
	next     Addr
	sizes    map[string]uint64
	order    []string
	segments []segment
}

type segment struct {
	base Addr
	end  Addr
	name string
}

// NewAllocator returns an allocator that starts placing data at base.
func NewAllocator(layout Layout, base Addr) *Allocator {
	return &Allocator{layout: layout, next: base, sizes: make(map[string]uint64)}
}

// Layout returns the layout the allocator was created with.
func (a *Allocator) Layout() Layout { return a.layout }

// Alloc reserves size bytes aligned to align (0 or 1 means word alignment)
// and returns the base address. The name is recorded for reporting; names
// need not be unique, but sizes are accumulated per name.
func (a *Allocator) Alloc(name string, size uint64, align uint64) Addr {
	if align < WordSize {
		align = WordSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("memory: alignment %d is not a power of two", align))
	}
	if size == 0 {
		size = WordSize
	}
	base := (uint64(a.next) + align - 1) &^ (align - 1)
	a.next = Addr(base + size)
	if _, seen := a.sizes[name]; !seen {
		a.order = append(a.order, name)
	}
	a.sizes[name] += size
	if n := len(a.segments); n > 0 && a.segments[n-1].name == name && a.segments[n-1].end <= Addr(base) {
		a.segments[n-1].end = Addr(base + size)
	} else {
		a.segments = append(a.segments, segment{base: Addr(base), end: Addr(base + size), name: name})
	}
	return Addr(base)
}

// FindName returns the region name containing addr, or "" if the address
// was never allocated. Segments are appended in address order, so a
// binary search suffices.
func (a *Allocator) FindName(addr Addr) string {
	lo, hi := 0, len(a.segments)
	for lo < hi {
		mid := (lo + hi) / 2
		seg := a.segments[mid]
		switch {
		case addr < seg.base:
			hi = mid
		case addr >= seg.end:
			lo = mid + 1
		default:
			return seg.name
		}
	}
	return ""
}

// AllocBlocks reserves size bytes aligned to the block size. Use it for
// data structures that should not falsely share a block with neighbours.
func (a *Allocator) AllocBlocks(name string, size uint64) Addr {
	return a.Alloc(name, size, a.layout.BlockSize)
}

// Regions returns the allocation names in order with their accumulated
// sizes.
func (a *Allocator) Regions() []Region {
	out := make([]Region, 0, len(a.order))
	for _, name := range a.order {
		out = append(out, Region{Name: name, Size: a.sizes[name]})
	}
	return out
}

// Region describes a named allocation for reporting.
type Region struct {
	Name string
	Size uint64
}
