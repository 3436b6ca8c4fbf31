package directory

import "lsnuma/internal/memory"

// TxnBuffers models the finite transaction-buffer pool (MSHRs) of each
// home node's directory controller. A global transaction holds one buffer
// at its home from the arrival of the request until the home's
// involvement in the transaction ends; a request that finds every buffer
// busy is NACKed and the requester must retry. Buffers are represented as
// busy-until times, matching the engine's discrete-event occupancy style
// (network ports, memory controllers): slot i is free at time t iff its
// recorded busy-until is <= t.
type TxnBuffers struct {
	slots [][]uint64 // [home][slot] busy-until time
}

// reserved marks a slot claimed by an in-flight transaction whose end
// time is not yet known (Complete overwrites it).
const reserved = ^uint64(0)

// NewTxnBuffers returns a pool of n transaction buffers per home node for
// a machine of `homes` nodes. n must be >= 1.
func NewTxnBuffers(homes, n int) *TxnBuffers {
	s := make([][]uint64, homes)
	backing := make([]uint64, homes*n)
	for i := range s {
		s[i], backing = backing[:n:n], backing[n:]
	}
	return &TxnBuffers{slots: s}
}

// Reserve claims a free transaction buffer at home for a request arriving
// at time `at`. It returns the claimed slot, or ok=false when every
// buffer is busy (the home NACKs the request). A claimed slot stays busy
// until Complete releases it with the transaction's end time.
func (b *TxnBuffers) Reserve(home memory.NodeID, at uint64) (slot int, ok bool) {
	s := b.slots[home]
	for i, busy := range s {
		if busy <= at {
			s[i] = reserved
			return i, true
		}
	}
	return -1, false
}

// Complete releases a reserved buffer at the time the home's involvement
// in the transaction ended; the slot can serve another request from
// `done` onward.
func (b *TxnBuffers) Complete(home memory.NodeID, slot int, done uint64) {
	b.slots[home][slot] = done
}

// Busy returns the number of buffers at home still occupied after time
// `at` (introspection for tests).
func (b *TxnBuffers) Busy(home memory.NodeID, at uint64) int {
	n := 0
	for _, busy := range b.slots[home] {
		if busy > at {
			n++
		}
	}
	return n
}
