package classify

import (
	"fmt"
	"math/rand"
	"testing"

	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
)

// refFalseSharing states the classification in its plainest form: one
// heap object per touched block, found through a map, with the per-CPU
// residency flags as directory.Bitsets. It is the oracle for
// TestFalseSharingMatchesReference.
type refFalseSharing struct {
	layout memory.Layout
	cpus   int
	blocks map[uint64]*refBlock
	clock  uint64

	Misses [NumMissKinds]uint64
}

type refBlock struct {
	wordTime   []uint64        // logical time of last write, per word
	wordWriter []memory.NodeID // last writer, per word

	resident  directory.Bitset // CPUs with an open residency
	everHeld  directory.Bitset // CPUs that ever held the block
	lostInval directory.Bitset // last residency ended by invalidation
	essential directory.Bitset // open residency already proven essential
	coherent  directory.Bitset // open residency began as a coherence miss
	lostTime  []uint64
}

func newRefFalseSharing(layout memory.Layout, cpus int) *refFalseSharing {
	return &refFalseSharing{layout: layout, cpus: cpus, blocks: make(map[uint64]*refBlock)}
}

func (f *refFalseSharing) block(block memory.Addr) *refBlock {
	idx := f.layout.BlockIndex(block)
	b, ok := f.blocks[idx]
	if !ok {
		words := f.layout.WordsPerBlock()
		b = &refBlock{
			wordTime:   make([]uint64, words),
			wordWriter: make([]memory.NodeID, words),
			lostTime:   make([]uint64, f.cpus),
		}
		for i := range b.wordWriter {
			b.wordWriter[i] = memory.NoNode
		}
		f.blocks[idx] = b
	}
	return b
}

func (f *refFalseSharing) OnMiss(cpu memory.NodeID, block memory.Addr) {
	b := f.block(block)
	if b.resident.Has(cpu) {
		return
	}
	b.resident.Add(cpu)
	b.essential.Remove(cpu)
	b.coherent.Remove(cpu)
	if !b.everHeld.Has(cpu) {
		f.Misses[ColdMiss]++
		b.everHeld.Add(cpu)
		b.essential.Add(cpu)
		return
	}
	if b.lostInval.Has(cpu) {
		b.coherent.Add(cpu)
	} else {
		f.Misses[ReplacementMiss]++
		b.essential.Add(cpu)
	}
}

func (f *refFalseSharing) OnAccess(cpu memory.NodeID, addr memory.Addr, size uint32, kind memory.Kind) {
	b := f.block(f.layout.Block(addr))
	first := f.layout.WordInBlock(addr)
	last := f.layout.WordInBlock(addr + memory.Addr(size) - 1)

	if !b.essential.Has(cpu) && b.coherent.Has(cpu) {
		lost := b.lostTime[cpu]
		for w := first; w <= last; w++ {
			if b.wordTime[w] > lost && b.wordWriter[w] != cpu {
				b.essential.Add(cpu)
				break
			}
		}
	}
	if kind == memory.Store {
		f.clock++
		for w := first; w <= last; w++ {
			b.wordTime[w] = f.clock
			b.wordWriter[w] = cpu
		}
	}
}

func (f *refFalseSharing) OnLose(cpu memory.NodeID, block memory.Addr, byInvalidation bool) {
	b := f.block(block)
	if !b.resident.Has(cpu) {
		return
	}
	f.closeResidency(b, cpu)
	b.resident.Remove(cpu)
	if byInvalidation {
		b.lostInval.Add(cpu)
	} else {
		b.lostInval.Remove(cpu)
	}
	f.clock++
	b.lostTime[cpu] = f.clock
}

func (f *refFalseSharing) closeResidency(b *refBlock, cpu memory.NodeID) {
	if !b.coherent.Has(cpu) {
		return
	}
	if b.essential.Has(cpu) {
		f.Misses[TrueSharingMiss]++
	} else {
		f.Misses[FalseSharingMiss]++
	}
	b.coherent.Remove(cpu)
}

func (f *refFalseSharing) Finalize() {
	for _, b := range f.blocks {
		b.resident.ForEach(func(cpu memory.NodeID) {
			f.closeResidency(b, cpu)
		})
		b.resident.Clear()
	}
}

// TestFalseSharingMatchesReference feeds the paged classifier and the
// map-based reference the same seeded random OnMiss/OnAccess/OnLose
// streams and requires identical miss counts. The CPU counts cover one
// presence word and several (130 > 2×64), and page sizes from 256 blocks
// down to 4; the block sizes cover 4 and 64 words per block. Blocks are
// drawn from a hot set, so residencies are reopened and interleaved, and
// from a sparse far range, so the page spine grows with holes.
func TestFalseSharingMatchesReference(t *testing.T) {
	for _, cpus := range []int{4, 130} {
		for _, blockSize := range []uint64{16, 256} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cpus=%d/block=%d/seed=%d", cpus, blockSize, seed), func(t *testing.T) {
					l, err := memory.NewLayout(4096, blockSize, cpus)
					if err != nil {
						t.Fatal(err)
					}
					got, want := NewFalseSharing(l, cpus), newRefFalseSharing(l, cpus)
					rng := rand.New(rand.NewSource(seed))
					const hot = 600 // blocks; spans several pages at every page size
					pick := func() memory.Addr {
						idx := uint64(rng.Intn(hot))
						if rng.Intn(50) == 0 {
							idx = 1<<16 + uint64(rng.Intn(1<<12))
						}
						return memory.Addr(idx * blockSize)
					}
					words := int(blockSize / memory.WordSize)
					for i := 0; i < 200_000; i++ {
						cpu := memory.NodeID(rng.Intn(cpus))
						block := pick()
						switch r := rng.Intn(10); {
						case r < 2:
							got.OnMiss(cpu, block)
							want.OnMiss(cpu, block)
						case r < 4:
							inval := rng.Intn(3) > 0
							got.OnLose(cpu, block, inval)
							want.OnLose(cpu, block, inval)
						default:
							first := rng.Intn(words)
							n := 1 + rng.Intn(words-first)
							if rng.Intn(2) == 0 {
								n = 1
							}
							addr := block + memory.Addr(first*memory.WordSize)
							size := uint32(n * memory.WordSize)
							kind := memory.Load
							if rng.Intn(3) == 0 {
								kind = memory.Store
							}
							got.OnAccess(cpu, addr, size, kind)
							want.OnAccess(cpu, addr, size, kind)
						}
					}
					got.Finalize()
					want.Finalize()
					if got.Misses != want.Misses {
						t.Fatalf("paged classifier %v, map reference %v", got.Misses, want.Misses)
					}
					if got.Misses[TrueSharingMiss] == 0 || got.Misses[FalseSharingMiss] == 0 || got.Misses[ReplacementMiss] == 0 {
						t.Fatalf("stream does not exercise every miss kind: %v", got.Misses)
					}
				})
			}
		}
	}
}
