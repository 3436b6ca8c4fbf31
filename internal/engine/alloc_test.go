package engine

import (
	"testing"

	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

// allocsForRun builds a machine and runs one single-processor program
// performing `accesses` load/store pairs over a small warm region, and
// returns the total allocation count of the whole build+run.
func allocsForRun(t *testing.T, accesses int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		m, err := NewMachine(testConfig(protocol.LS, protocol.Variant{}))
		if err != nil {
			t.Fatal(err)
		}
		buf := m.Alloc().Alloc("buf", 1024, 0)
		prog := func(p *Proc) {
			for i := 0; i < accesses; i++ {
				a := buf + memory.Addr((i*memory.WordSize)%1024)
				p.Read(a)
				p.Write(a)
			}
		}
		if err := m.Run([]Program{prog}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHotPathAllocs guards the per-access allocation count of the engine
// hot path (op submission, block split, access servicing): the steady
// state must allocate (near) nothing, so the marginal cost of 20x more
// accesses is ~zero. Before the op-reuse and split-hoist optimizations the
// marginal cost was >2 allocations per access.
func TestHotPathAllocs(t *testing.T) {
	small := allocsForRun(t, 500)
	big := allocsForRun(t, 10000)
	perAccess := (big - small) / float64(2*(10000-500))
	t.Logf("allocs: %d accesses=%.0f, %d accesses=%.0f, marginal=%.4f allocs/access",
		2*500, small, 2*10000, big, perAccess)
	if perAccess > 0.02 {
		t.Errorf("hot path allocates %.4f allocations per access, want ~0 (<= 0.02)", perAccess)
	}
}

// blockAllocs returns the total allocation count of building cfg's
// machine and running one processor that reads `blocks` distinct blocks.
func blockAllocs(t *testing.T, cfg Config, blocks int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		size := uint64(blocks * 16)
		buf := m.Alloc().Alloc("buf", size, 0)
		prog := func(p *Proc) {
			for i := 0; i < blocks; i++ {
				p.Read(buf + memory.Addr(i*16))
			}
		}
		if err := m.Run([]Program{prog}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDirectoryAllocs guards the flat paged directory against per-block
// allocation: touching N distinct blocks must allocate pages (one per
// ~256 blocks), not entries — the marginal allocation cost per block is a
// small fraction, where a map of *Entry pays one *Entry plus map growth
// per block.
func TestDirectoryAllocs(t *testing.T) {
	cfg := testConfig(protocol.LS, protocol.Variant{})
	small := blockAllocs(t, cfg, 512)
	big := blockAllocs(t, cfg, 8192)
	perBlock := (big - small) / float64(8192-512)
	t.Logf("directory marginal allocs/block=%.4f", perBlock)
	// One page struct + two slices per 256 blocks plus cache-fill noise:
	// well under 0.1; a map of *Entry sat near 1.2.
	if perBlock > 0.1 {
		t.Errorf("directory allocates %.4f allocations per touched block, want paged (<= 0.1)", perBlock)
	}
}

// TestFalseSharingAllocs is TestDirectoryAllocs with the false-sharing
// classifier on: its per-block state lives in pages as well, so the
// marginal cost per touched block stays a small fraction, where the
// map-based classifier allocated four objects plus map growth per block.
func TestFalseSharingAllocs(t *testing.T) {
	cfg := testConfig(protocol.LS, protocol.Variant{})
	cfg.TrackFalseSharing = true
	small := blockAllocs(t, cfg, 512)
	big := blockAllocs(t, cfg, 8192)
	perBlock := (big - small) / float64(8192-512)
	t.Logf("directory+classifier marginal allocs/block=%.4f", perBlock)
	if perBlock > 0.1 {
		t.Errorf("directory and classifier allocate %.4f allocations per touched block, want paged (<= 0.1)", perBlock)
	}
}

// TestStraddlingAccessAllocs guards the block-straddling path: the split
// scratch buffer is reused, so multi-block accesses must not allocate per
// access either.
func TestStraddlingAccessAllocs(t *testing.T) {
	run := func(accesses int) float64 {
		return testing.AllocsPerRun(3, func() {
			m, err := NewMachine(testConfig(protocol.Baseline, protocol.Variant{}))
			if err != nil {
				t.Fatal(err)
			}
			buf := m.Alloc().Alloc("buf", 1024, 16)
			prog := func(p *Proc) {
				for i := 0; i < accesses; i++ {
					// 32-byte access offset by half a block: always
					// straddles two (sometimes three) 16 B blocks.
					p.ReadN(buf+8, 32)
				}
			}
			if err := m.Run([]Program{prog}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := run(500)
	big := run(10000)
	perAccess := (big - small) / float64(10000-500)
	t.Logf("straddling marginal allocs/access=%.4f", perAccess)
	if perAccess > 0.02 {
		t.Errorf("straddling path allocates %.4f allocations per access, want ~0 (<= 0.02)", perAccess)
	}
}
