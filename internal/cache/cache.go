// Package cache models the per-node cache hierarchy of the simulated
// multiprocessor: set-associative, write-back, write-allocate caches with
// LRU replacement, arranged as a two-level inclusive hierarchy (L1 backed
// by L2), as in the paper's architectural model (Section 4.2, Table 1).
//
// Coherence states follow the baseline DASH-like write-invalidate protocol
// with the addition of LStemp, the temporary exclusive-clean state used by
// the LS protocol extension (Section 3.1): a block granted exclusively on a
// read stays in LStemp until the predicted store arrives (then Modified,
// silently), a foreign access de-tags it, or it is replaced.
package cache

import (
	"fmt"
	"math/bits"

	"lsnuma/internal/memory"
)

// State is the coherence state of a block in a cache.
type State uint8

const (
	// Invalid marks a block not present (or invalidated).
	Invalid State = iota
	// Shared marks a read-only copy; other caches may also hold it.
	Shared
	// Modified marks the only copy, dirty with respect to memory.
	Modified
	// LStemp marks an exclusive clean copy granted on a read of an
	// LS-tagged (or migratory) block, awaiting the predicted store.
	LStemp
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	case LStemp:
		return "LStemp"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Exclusive reports whether the state implies this cache holds the only
// valid copy among caches.
func (s State) Exclusive() bool { return s == Modified || s == LStemp }

// Config describes one cache level.
type Config struct {
	Size       uint64 // total capacity in bytes
	Assoc      int    // associativity (1 = direct mapped)
	BlockSize  uint64 // line size in bytes
	AccessTime int    // hit latency in cycles
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.BlockSize == 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockSize)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", c.Assoc)
	}
	if c.Size == 0 || c.Size%(c.BlockSize*uint64(c.Assoc)) != 0 {
		return fmt.Errorf("cache: size %d not divisible by block size %d × assoc %d",
			c.Size, c.BlockSize, c.Assoc)
	}
	sets := c.Size / (c.BlockSize * uint64(c.Assoc))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.AccessTime < 0 {
		return fmt.Errorf("cache: negative access time %d", c.AccessTime)
	}
	return nil
}

type line struct {
	block memory.Addr // block-aligned address; valid only if state != Invalid
	state State
	lru   uint64
}

// Cache is one set-associative cache level. Lines of all sets live in one
// contiguous array indexed by set*assoc+way; set selection is two shifts
// and a mask (block size and set count are powers of two), keeping the
// per-access lookup free of hardware divides and pointer chasing.
type Cache struct {
	cfg        Config
	numSets    uint64
	blockShift uint // log2(cfg.BlockSize)
	assoc      uint64
	lines      []line
	clock      uint64
}

// New builds a cache from cfg. It panics on an invalid configuration;
// validate with cfg.Validate first when the parameters come from input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / (cfg.BlockSize * uint64(cfg.Assoc))
	return &Cache{
		cfg:        cfg,
		numSets:    sets,
		blockShift: uint(bits.TrailingZeros64(cfg.BlockSize)),
		assoc:      uint64(cfg.Assoc),
		lines:      make([]line, sets*uint64(cfg.Assoc)),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) set(block memory.Addr) []line {
	idx := (uint64(block) >> c.blockShift) & (c.numSets - 1)
	base := idx * c.assoc
	return c.lines[base : base+c.assoc]
}

// Lookup returns the state of block, touching LRU on hit. Invalid means
// miss.
func (c *Cache) Lookup(block memory.Addr) State {
	set := c.set(block)
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			c.clock++
			set[i].lru = c.clock
			return set[i].state
		}
	}
	return Invalid
}

// Probe returns the state of block without disturbing LRU order.
func (c *Cache) Probe(block memory.Addr) State {
	set := c.set(block)
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			return set[i].state
		}
	}
	return Invalid
}

// SetState changes the state of a resident block and reports whether the
// block was present. Setting Invalid is equivalent to Invalidate.
func (c *Cache) SetState(block memory.Addr, s State) bool {
	set := c.set(block)
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			set[i].state = s
			return true
		}
	}
	return false
}

// Invalidate removes block and returns its previous state (Invalid if it
// was not present).
func (c *Cache) Invalidate(block memory.Addr) State {
	set := c.set(block)
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			old := set[i].state
			set[i].state = Invalid
			return old
		}
	}
	return Invalid
}

// Victim describes a block evicted by Insert.
type Victim struct {
	Block memory.Addr
	State State
}

// Insert places block with the given state, evicting the LRU line of the
// set if needed. It panics if the block is already present (callers must
// use SetState for state changes) or if state is Invalid.
func (c *Cache) Insert(block memory.Addr, s State) (Victim, bool) {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set := c.set(block)
	var free *line
	var lru *line
	for i := range set {
		ln := &set[i]
		if ln.state != Invalid && ln.block == block {
			panic(fmt.Sprintf("cache: Insert of resident block %#x", block))
		}
		if ln.state == Invalid {
			if free == nil {
				free = ln
			}
			continue
		}
		if lru == nil || ln.lru < lru.lru {
			lru = ln
		}
	}
	c.clock++
	if free != nil {
		*free = line{block: block, state: s, lru: c.clock}
		return Victim{}, false
	}
	v := Victim{Block: lru.block, State: lru.state}
	*lru = line{block: block, state: s, lru: c.clock}
	return v, true
}

// Resident returns the blocks currently cached, in no particular order.
// Intended for tests and invariant checks.
func (c *Cache) Resident() []Victim {
	var out []Victim
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			out = append(out, Victim{Block: c.lines[i].block, State: c.lines[i].state})
		}
	}
	return out
}

// Flush invalidates every line. Dirty contents are discarded; callers that
// need writebacks should walk Resident first.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i].state = Invalid
	}
}
