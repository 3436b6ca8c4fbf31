// Package network models the point-to-point interconnection network of the
// simulated multiprocessor: fixed per-hop delay with contention modeled as
// link occupancy at each node's egress and ingress ports, matching the
// paper's architectural model ("The processor nodes are connected in a
// point-to-point network with a fixed delay. Contention is accurately
// modeled in the network.", Section 4.2).
package network

import (
	"fmt"

	"lsnuma/internal/memory"
	"lsnuma/internal/stats"
)

// Topology selects how the hop count between two nodes is computed.
type Topology uint8

const (
	// PointToPoint is the paper's model: every node pair is one fixed-
	// delay hop apart (Section 4.2).
	PointToPoint Topology = iota
	// Mesh2D arranges the nodes in a (near-)square two-dimensional mesh
	// with X-Y dimension-order routing: the traversal delay scales with
	// the Manhattan distance — an extension for studying distance-
	// sensitive NUMA effects.
	Mesh2D
)

func (t Topology) String() string {
	switch t {
	case PointToPoint:
		return "point-to-point"
	case Mesh2D:
		return "mesh2d"
	default:
		return fmt.Sprintf("Topology(%d)", uint8(t))
	}
}

// Config holds the network timing parameters.
type Config struct {
	// HopDelay is the traversal latency of one network hop in cycles
	// (Table 1 / Figure 2).
	HopDelay int
	// BytesPerCycle is the link bandwidth used to charge occupancy; a
	// message holds a port for ceil(size/BytesPerCycle) cycles.
	BytesPerCycle int
	// BlockSize is the cache block size, used to size data-carrying
	// messages.
	BlockSize uint64
	// Topology selects the hop-count model (default PointToPoint).
	Topology Topology
	// Concentration is the number of nodes attached to each mesh router
	// (a concentrated mesh, the standard way to keep hop counts realistic
	// at hundreds to thousands of nodes: a 1024-node machine with
	// Concentration 4 routes over a 16x16 router grid instead of 32x32).
	// Zero or one means the plain mesh; only meaningful with Mesh2D.
	Concentration int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HopDelay < 0 {
		return fmt.Errorf("network: negative hop delay %d", c.HopDelay)
	}
	if c.BytesPerCycle < 1 {
		return fmt.Errorf("network: bytes per cycle %d < 1", c.BytesPerCycle)
	}
	if c.BlockSize == 0 {
		return fmt.Errorf("network: zero block size")
	}
	if c.Concentration < 0 {
		return fmt.Errorf("network: negative concentration %d", c.Concentration)
	}
	switch c.Topology {
	case PointToPoint:
		if c.Concentration > 1 {
			return fmt.Errorf("network: concentration %d is only meaningful with the %s topology", c.Concentration, Mesh2D)
		}
	case Mesh2D:
		// A zero hop delay silently collapses the mesh's Manhattan-
		// distance model to uniform cost — reject it rather than let a
		// distance study measure nothing.
		if c.HopDelay == 0 {
			return fmt.Errorf("network: Mesh2D with zero hop delay degrades distance modeling; set HopDelay >= 1")
		}
	default:
		return fmt.Errorf("network: unknown topology %d (want %s or %s)",
			uint8(c.Topology), PointToPoint, Mesh2D)
	}
	return nil
}

// Network is the interconnect state: per-node port occupancy plus traffic
// accounting.
type Network struct {
	cfg     Config
	egress  []uint64 // busy-until time of each node's output port
	ingress []uint64 // busy-until time of each node's input port
	st      *stats.Stats
	meshW   int // router-grid width for Mesh2D
	conc    int // nodes per mesh router (>= 1)
}

// meshWidth returns the smallest width whose square covers n nodes.
func meshWidth(n int) int {
	w := 1
	for w*w < n {
		w++
	}
	return w
}

// Hops returns the number of network hops between two nodes under the
// configured topology (0 for a node talking to itself).
func (nw *Network) Hops(from, to memory.NodeID) int {
	if from == to {
		return 0
	}
	if nw.cfg.Topology == PointToPoint {
		return 1
	}
	// Concentrated mesh: route between the routers the two nodes hang off
	// (node/conc), by X-Y Manhattan distance over the router grid. Two
	// distinct nodes on the same router are still one hop apart (through
	// their shared router), never zero.
	fr, tr := int(from)/nw.conc, int(to)/nw.conc
	fx, fy := fr%nw.meshW, fr/nw.meshW
	tx, ty := tr%nw.meshW, tr/nw.meshW
	dx, dy := fx-tx, fy-ty
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if d := dx + dy; d > 0 {
		return d
	}
	return 1
}

// New builds a network for n nodes, recording traffic into st.
func New(cfg Config, n int, st *stats.Stats) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("network: need at least one node, got %d", n)
	}
	conc := cfg.Concentration
	if conc < 1 {
		conc = 1
	}
	return &Network{
		cfg:     cfg,
		egress:  make([]uint64, n),
		ingress: make([]uint64, n),
		st:      st,
		meshW:   meshWidth((n + conc - 1) / conc),
		conc:    conc,
	}, nil
}

// Reset clears all port occupancy, returning the network to its freshly
// constructed state (the stats sink is owned by the caller and reset
// separately).
func (nw *Network) Reset() {
	clear(nw.egress)
	clear(nw.ingress)
}

// msgBytes returns the wire size of a message of type t.
func (nw *Network) msgBytes(t stats.MsgType) int {
	n := stats.HeaderBytes
	if t.CarriesData() {
		n += int(nw.cfg.BlockSize)
	}
	return n
}

func (nw *Network) occupancy(bytes int) uint64 {
	bpc := nw.cfg.BytesPerCycle
	return uint64((bytes + bpc - 1) / bpc)
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
	nw.st.AddMsg(t, nw.cfg.BlockSize)
	occ := nw.occupancy(nw.msgBytes(t))

	depart := now
	if nw.egress[from] > depart {
		depart = nw.egress[from]
	}
	nw.egress[from] = depart + occ

	arrive := depart + occ + uint64(nw.cfg.HopDelay)*uint64(nw.Hops(from, to))
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
