// Package engine is the program-driven multiprocessor simulation engine.
//
// Each simulated processor runs an ordinary Go function (a Program)
// against the simulated memory system through a *Proc handle: every
// p.Read/p.Write is serviced by the detailed cache, directory, protocol
// and network models, and the processor's local clock advances by the
// modeled latency. A global scheduler always resumes the processor with
// the smallest local clock, so the interleaving of the programs reflects
// the modeled memory system — exactly the property the paper relies on
// ("we model processor stall according to the behavior and latencies of
// the memory components, so a realistic interleaving of execution between
// the different processors can be maintained", Section 4).
//
// The machine implements a sequentially consistent memory model: the
// processor stalls for the full duration of every second-level cache
// miss, both reads and writes (Section 4.2).
package engine

import (
	"fmt"

	"lsnuma/internal/cache"
	"lsnuma/internal/check"
	"lsnuma/internal/directory"
	"lsnuma/internal/fault"
	"lsnuma/internal/protocol"
)

// The latencies of Table 1 / Figure 2, in cycles: memory 40 and
// controller 20 as in Table 1. With the network's 60-cycle hop
// (internal/network) the composite access latencies land near the paper's
// Table 1 targets — local ≈ 100, home ≈ 220, remote (read-on-dirty, 4
// hops) ≈ 420 cycles (TestCompositeLatencies). The paper's per-component
// and composite figures are mutually inconsistent as printed; the
// composites are what drive behaviour, so they take precedence.
const (
	memTime  = 40 // memory (DRAM) access time
	ctrlTime = 20 // memory-controller occupancy per request
)

// defaultMaxCycles is the livelock guard of a Config whose MaxCycles is
// zero.
const defaultMaxCycles = 100_000_000_000

// Sched selects how the engine's one scheduling path runs. Both settings
// service operations in the same order and produce byte-identical
// Results; they differ only in host-side execution strategy.
type Sched uint8

const (
	// SchedRunAhead is the default: the processor holding the conch
	// services its operation in place, with no scheduler step, whenever
	// it orders before every operation in the heap; spin-waits are
	// re-armed without waking the spinner; and a spinner whose copy of
	// its lock or barrier word sits in its own L1 sleeps off the heap
	// until the variable changes or it loses the copy, its slept reads
	// accounted on wake (see Proc.runInline, Machine.popServe and
	// Machine.wake). With a checker, fault injector or recorder
	// attached, spinners stay on the heap.
	SchedRunAhead Sched = iota
	// SchedSerial is the reference: the same path with no in-place
	// service and no sleeping, so every memory operation, each spin read
	// included, takes a scheduler step.
	SchedSerial
)

func (s Sched) String() string {
	switch s {
	case SchedRunAhead:
		return "runahead"
	case SchedSerial:
		return "serial"
	default:
		return fmt.Sprintf("Sched(%d)", uint8(s))
	}
}

// ParseSched converts a scheduler name ("", "runahead", "serial"; ""
// means runahead) to a Sched.
func ParseSched(s string) (Sched, error) {
	switch s {
	case "", "runahead":
		return SchedRunAhead, nil
	case "serial":
		return SchedSerial, nil
	default:
		return SchedRunAhead, fmt.Errorf("engine: unknown scheduler %q (want runahead, serial)", s)
	}
}

// MaxNodes is the largest supported machine size. The directory's sharer
// sets scale past 64 nodes (inline word plus extension words), so the cap
// is only a sanity bound on simulation cost.
const MaxNodes = 4096

// Config describes the simulated machine.
type Config struct {
	// Nodes is the number of processor nodes (1..MaxNodes).
	Nodes int
	// L1 and L2 configure the per-node cache hierarchy. Both levels must
	// use the same block size.
	L1, L2 cache.Config
	// PageSize is the physical page size for round-robin placement.
	PageSize uint64
	// Protocol selects the coherence policy (Baseline, AD or LS).
	Protocol protocol.Protocol
	// TrackFalseSharing enables the word-granularity Dubois classifier
	// (Table 4). Costs memory proportional to the touched address space.
	TrackFalseSharing bool
	// MaxCycles aborts a run whose processors exceed this many cycles
	// (a guard against livelocked workloads). Zero means the default
	// (100,000,000,000 cycles).
	MaxCycles uint64
	// SoftwareExclusive honours exclusive-read annotations (Proc.ReadEx
	// and the load half of RMW): the read request is combined with the
	// ownership acquisition at the annotated sites, modelling the static
	// compiler techniques (Skeppstedt & Stenström's fictive exclusive
	// loads, Mowry's prefetch-exclusive) the paper compares against in
	// Sections 2.1 and 6. Without this flag the annotations degrade to
	// plain reads.
	SoftwareExclusive bool
	// RelaxedWrites models a relaxed memory consistency ablation (the
	// paper's Section 6 discussion): ordinary global stores retire into a
	// write buffer and do not stall the processor; atomic read-modify-
	// writes still drain the buffer (and so see the full latency). Under
	// this model the write-stall savings of LS/AD largely vanish while
	// their traffic savings remain — the paper's prediction.
	RelaxedWrites bool
	// CheckLevel runs the coherence invariant checker (internal/check)
	// online: check.Touched validates every block an operation touches,
	// before and after the transaction; check.Full adds a whole-machine
	// sweep every CheckInterval operations and at the end of the run. A
	// violation aborts the run with a *check.CoherenceViolation. The
	// default check.Off costs one nil comparison per serviced operation.
	CheckLevel check.Level
	// CheckInterval is the full-sweep period in serviced operations under
	// check.Full. Zero means the default (4096).
	CheckInterval uint64
	// FaultInjector, if non-nil, deterministically corrupts protocol state
	// mid-run (internal/fault) to prove the online checker detects real
	// corruption. Never set it for normal simulations.
	FaultInjector *fault.Injector
	// DirMSHRs bounds the number of concurrent transactions each home
	// node's directory controller can buffer; a request that finds every
	// buffer busy is NACKed and retried under Retry. Zero means unlimited
	// buffers (the classic model).
	DirMSHRs int
	// Retry configures the requester-side retry state machine for NACKed
	// and lost transactions. The zero policy disables retries: any NACK
	// or loss then starves the requester and trips the watchdog.
	Retry protocol.RetryPolicy
	// ProgressWindow is the forward-progress watchdog's stall budget: a
	// transaction spending more than this many cycles in NACK/loss
	// recovery fails the run with a *StarvationError. Zero means the
	// default (4,000,000 cycles).
	ProgressWindow uint64
	// MsgFaults, if non-nil, subjects network messages to deterministic
	// drop/dup/reorder faults (fault.MsgInjector). Recovery is accounted
	// out-of-band, leaving the simulated timeline unchanged (see the
	// resil doc comment). Never set it for real measurements.
	MsgFaults *fault.MsgInjector
	// Cancel, if non-nil, is polled about every 1024 serviced operations;
	// a non-nil return aborts the run with a *CancelledError wrapping it.
	// Used for per-point wall-clock deadlines (context plumbing).
	Cancel func() error
	// Sched selects the scheduler: the default run-ahead scheduler, under
	// which a processor services its operation in place whenever it is
	// the earliest pending one (see Proc.runInline), or the serial
	// reference. Both produce byte-identical Results and service
	// operations in the same order.
	Sched Sched
	// DirFormat selects the directory's wire format: full presence map
	// (the default and the differential oracle), limited-pointer Dir_i_B,
	// or coarse vector. The simulator always tracks the exact sharer set,
	// so the format never changes timing or protocol behaviour; it sets
	// the modeled per-entry storage cost and the architectural
	// extra-invalidation counters (stats.Dir / Result.Dir).
	DirFormat directory.Format
}

// SchemaVersion identifies the generation of simulated semantics: it is
// part of every persistent result-cache key, so cached Results are
// invalidated automatically when an engine change could alter any Result
// field. Bump it in any PR that changes simulated timing, protocol
// behaviour, or Result contents.
const SchemaVersion = 9

// Validate checks the machine configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.Nodes > MaxNodes {
		return fmt.Errorf("engine: node count %d outside 1..%d", c.Nodes, MaxNodes)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("engine: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("engine: L2: %w", err)
	}
	if c.L1.BlockSize != c.L2.BlockSize {
		return fmt.Errorf("engine: L1 block size %d != L2 block size %d", c.L1.BlockSize, c.L2.BlockSize)
	}
	if c.L1.Size > c.L2.Size {
		return fmt.Errorf("engine: L1 size %d exceeds L2 size %d (inclusion)", c.L1.Size, c.L2.Size)
	}
	if c.PageSize == 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("engine: page size %d not a power of two", c.PageSize)
	}
	if c.PageSize < c.L2.BlockSize {
		return fmt.Errorf("engine: page size %d smaller than block size %d", c.PageSize, c.L2.BlockSize)
	}
	if c.Protocol == nil {
		return fmt.Errorf("engine: no protocol configured")
	}
	if c.DirMSHRs < 0 {
		return fmt.Errorf("engine: negative directory MSHR count %d", c.DirMSHRs)
	}
	if c.Sched > SchedSerial {
		return fmt.Errorf("engine: unknown scheduler %d", c.Sched)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.DirFormat.Validate(c.Nodes); err != nil {
		return err
	}
	return nil
}
