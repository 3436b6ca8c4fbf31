package engine

// Exhaustive model checking of the coherence protocols: enumerate every
// sequence of (cpu, load/store, block) operations up to a bounded length,
// drive them through the full memory-system transaction logic, and check
// the machine-wide invariants after every step:
//
//   - single-writer / multiple-reader: an exclusive (Modified/LStemp)
//     copy is never co-resident with any other copy;
//   - directory exactness: the home's presence information always
//     matches the caches;
//   - home-state legality: the directory entry always satisfies its
//     structural invariant.
//
// Because the engine services transactions atomically, an interleaving of
// the processors IS a sequence of operations, so bounded exhaustive
// enumeration covers every reachable protocol state within the bound.
// With 3 CPUs × 2 kinds × 2 blocks and depth 5 this explores ~250k
// sequences per protocol.

import (
	"fmt"
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

// mcOp is one symbol of the operation alphabet.
type mcOp struct {
	cpu   memory.NodeID
	kind  memory.Kind
	block memory.Addr
}

// mcMachine builds a small machine for model checking. Tiny direct-mapped
// caches make replacements reachable within the bound: the two blocks
// conflict in L1 (one set) but not in L2.
func mcMachine(t testing.TB, kind protocol.Kind, v protocol.Variant) *Machine {
	m, err := NewMachine(Config{
		Nodes:          3,
		L1:             cache.Config{Size: 16, Assoc: 1, BlockSize: 16, AccessTime: 1},
		L2:             cache.Config{Size: 64, Assoc: 1, BlockSize: 16, AccessTime: 10},
		PageSize:       4096,
		Timing:         DefaultTiming(),
		Protocol:       protocol.New(kind, v),
		TrackSequences: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// apply drives one operation directly through the memory system (the
// in-package shortcut around the scheduler; transactions are atomic, so
// this is exactly what an interleaved program run would do).
func apply(m *Machine, procs []*Proc, op mcOp) {
	p := procs[op.cpu]
	m.accessBlock(p, op.block, memory.WordSize, op.kind, false, false)
}

// checkInvariants is CheckCoherence plus nothing-omitted error reporting.
func checkInvariants(m *Machine) error {
	return m.CheckCoherence()
}

func TestModelCheckProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check in -short mode")
	}
	blocks := []memory.Addr{0x00, 0x40} // L2 sets differ; L1 set shared
	var alphabet []mcOp
	for cpu := memory.NodeID(0); cpu < 3; cpu++ {
		for _, k := range []memory.Kind{memory.Load, memory.Store} {
			for _, b := range blocks {
				alphabet = append(alphabet, mcOp{cpu, k, b})
			}
		}
	}
	const depth = 4 // 12^4 = 20,736 sequences per protocol/variant

	variants := []struct {
		kind protocol.Kind
		v    protocol.Variant
	}{
		{protocol.Baseline, protocol.Variant{}},
		{protocol.AD, protocol.Variant{}},
		{protocol.LS, protocol.Variant{}},
		{protocol.LS, protocol.Variant{DefaultTagged: true}},
		{protocol.LS, protocol.Variant{KeepOnWriteMiss: true}},
		{protocol.LS, protocol.Variant{TagHysteresis: 2, DetagHysteresis: 2}},
	}

	for _, pv := range variants {
		pv := pv
		name := fmt.Sprintf("%v%s", pv.kind, pv.v.String())
		t.Run(name, func(t *testing.T) {
			seq := make([]mcOp, depth)
			var count int
			// Machines are not copyable, so each sequence replays from
			// scratch; the operations are cheap enough that the full
			// 12^4 enumeration stays well under a second.
			var enumerate func(level int) bool
			enumerate = func(level int) bool {
				if level == depth {
					count++
					m := mcMachine(t, pv.kind, pv.v)
					procs := []*Proc{
						{m: m, id: 0}, {m: m, id: 1}, {m: m, id: 2},
					}
					for step, op := range seq {
						apply(m, procs, op)
						if err := checkInvariants(m); err != nil {
							t.Fatalf("sequence %v failed at step %d: %v", seq[:step+1], step, err)
						}
					}
					return true
				}
				for _, op := range alphabet {
					seq[level] = op
					if !enumerate(level + 1) {
						return false
					}
				}
				return true
			}
			enumerate(0)
			if count != pow(len(alphabet), depth) {
				t.Fatalf("explored %d sequences, want %d", count, pow(len(alphabet), depth))
			}
		})
	}
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// TestModelCheckDeepSingleBlock goes deeper (depth 6) on a single block,
// where the protocol state machine lives, for the LS protocol.
func TestModelCheckDeepSingleBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check in -short mode")
	}
	var alphabet []mcOp
	for cpu := memory.NodeID(0); cpu < 3; cpu++ {
		for _, k := range []memory.Kind{memory.Load, memory.Store} {
			alphabet = append(alphabet, mcOp{cpu, k, 0})
		}
	}
	const depth = 6 // 6^6 = 46,656 sequences
	seq := make([]mcOp, depth)
	var enumerate func(level int)
	enumerate = func(level int) {
		if level == depth {
			m := mcMachine(t, protocol.LS, protocol.Variant{})
			procs := []*Proc{{m: m, id: 0}, {m: m, id: 1}, {m: m, id: 2}}
			for step, op := range seq {
				apply(m, procs, op)
				if err := checkInvariants(m); err != nil {
					t.Fatalf("sequence %v failed at step %d: %v", seq[:step+1], step, err)
				}
			}
			return
		}
		for _, op := range alphabet {
			seq[level] = op
			enumerate(level + 1)
		}
	}
	enumerate(0)
}
