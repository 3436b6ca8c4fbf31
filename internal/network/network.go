// Package network models the point-to-point interconnection network of the
// simulated multiprocessor: one fixed-delay hop between any two nodes, with
// contention modeled as link occupancy at each node's egress and ingress
// ports, matching the paper's architectural model ("The processor nodes
// are connected in a point-to-point network with a fixed delay. Contention
// is accurately modeled in the network.", Section 4.2).
package network

import (
	"fmt"

	"lsnuma/internal/memory"
	"lsnuma/internal/stats"
)

// The link model: a message between two distinct nodes holds its sender's
// egress port and its receiver's ingress port for ceil(size/bytesPerCycle)
// cycles each, and flies one hop of hopDelay cycles in between. The
// 60-cycle hop lands the composite access latencies near the paper's
// Table 1 targets (see the engine's latency constants).
const (
	hopDelay      = 60 // traversal time of the one fixed-delay hop
	bytesPerCycle = 8  // link bandwidth for contention modeling
)

// Network is the interconnect state: per-node port occupancy plus traffic
// accounting.
type Network struct {
	blockSize uint64   // payload of a data-carrying message
	egress    []uint64 // busy-until time of each node's output port
	ingress   []uint64 // busy-until time of each node's input port
	st        *stats.Stats
}

// New builds a network for n nodes whose data messages carry blockSize-
// byte cache blocks, recording traffic into st.
func New(blockSize uint64, n int, st *stats.Stats) (*Network, error) {
	if blockSize == 0 {
		return nil, fmt.Errorf("network: zero block size")
	}
	if n < 1 {
		return nil, fmt.Errorf("network: need at least one node, got %d", n)
	}
	return &Network{
		blockSize: blockSize,
		egress:    make([]uint64, n),
		ingress:   make([]uint64, n),
		st:        st,
	}, nil
}

// occupancy returns the cycles a message of type t holds a port.
func (nw *Network) occupancy(t stats.MsgType) uint64 {
	n := uint64(stats.HeaderBytes)
	if t.CarriesData() {
		n += nw.blockSize
	}
	return (n + bytesPerCycle - 1) / bytesPerCycle
}

// Send transmits one message of type t from node `from` to node `to`,
// injected at time now, and returns the time the message has been fully
// received. Messages between a node and itself (a processor accessing its
// local home) do not traverse the network, cost nothing, and are not
// counted as traffic — the paper's traffic figures count global messages.
func (nw *Network) Send(from, to memory.NodeID, t stats.MsgType, now uint64) uint64 {
	if from == to {
		return now
	}
	nw.st.AddMsg(t, nw.blockSize)
	occ := nw.occupancy(t)

	depart := now
	if nw.egress[from] > depart {
		depart = nw.egress[from]
	}
	nw.egress[from] = depart + occ

	arrive := depart + occ + hopDelay
	if nw.ingress[to] > arrive {
		arrive = nw.ingress[to]
	}
	nw.ingress[to] = arrive + occ
	return arrive + occ
}

// PortBusyUntil exposes port occupancy for tests and contention analysis.
func (nw *Network) PortBusyUntil(node memory.NodeID) (egress, ingress uint64) {
	return nw.egress[node], nw.ingress[node]
}
