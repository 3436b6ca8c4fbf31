// Package lsnuma reproduces "Reducing Ownership Overhead for Load-Store
// Sequences in Cache-Coherent Multiprocessors" (Nilsson & Dahlgren, IPPS
// 2000): a program-driven CC-NUMA multiprocessor simulator with three
// coherence protocols — the baseline DASH-like write-invalidate protocol,
// the adaptive migratory protocol (AD, Stenström et al.), and the paper's
// load-store protocol extension (LS) — plus the paper's four workloads and
// the full measurement set (execution-time decomposition, traffic
// categories, read-miss classification, load-store/migratory sequence
// analysis, and Dubois false-sharing classification).
//
// Quick start:
//
//	cfg := lsnuma.DefaultConfig()
//	cfg.Protocol = lsnuma.LS
//	res, err := lsnuma.Run(cfg, "mp3d", lsnuma.ScaleTest)
//
// Compare all three protocols on a workload:
//
//	results, err := lsnuma.Compare(lsnuma.OLTPConfig(), "oltp", lsnuma.ScaleSmall)
package lsnuma

import (
	"fmt"

	"lsnuma/internal/cache"
	"lsnuma/internal/check"
	"lsnuma/internal/directory"
	"lsnuma/internal/engine"
	"lsnuma/internal/fault"
	"lsnuma/internal/protocol"
	"lsnuma/internal/workload"
)

// Protocol selects the coherence policy.
type Protocol string

// The three protocols of the paper, plus EX — the static (compiler)
// exclusive-load technique of Skeppstedt & Stenström that the paper
// contrasts with its hardware approach (Sections 2.1 and 6): the baseline
// protocol with the workloads' annotated read-modify-write sites issuing
// combined read+ownership requests.
const (
	Baseline Protocol = "Baseline"
	AD       Protocol = "AD"
	LS       Protocol = "LS"
	EX       Protocol = "EX"
)

// Protocols lists the paper's three protocols in presentation order (EX
// is available separately as an extension).
func Protocols() []Protocol { return []Protocol{Baseline, AD, LS} }

// Scale selects the workload problem size.
type Scale = workload.Scale

// Workload scales.
const (
	ScaleTest  = workload.ScaleTest
	ScaleSmall = workload.ScaleSmall
	ScalePaper = workload.ScalePaper
)

// CheckLevel selects how much online coherence invariant checking a
// simulation performs (see the Robustness section of the README).
type CheckLevel string

const (
	// CheckOff disables online checking (the default; near-zero cost).
	CheckOff CheckLevel = "off"
	// CheckTouched validates every block an operation touches, before and
	// after the transaction.
	CheckTouched CheckLevel = "touched"
	// CheckFull is CheckTouched plus a whole-machine invariant sweep every
	// 4,096 operations and at the end of the run.
	CheckFull CheckLevel = "full"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Size       uint64 // bytes
	Assoc      int    // 1 = direct mapped
	AccessTime int    // cycles
}

// Variant selects the Section 5.5 protocol ablations.
type Variant = protocol.Variant

// Config is the machine configuration (the paper's Table 1).
type Config struct {
	// Nodes is the processor count (the paper uses 4; Figure 5 also uses
	// 16 and 32).
	Nodes int
	// L1 and L2 configure the cache hierarchy.
	L1, L2 CacheConfig
	// BlockSize is the cache block size in bytes (16-256 in the paper).
	BlockSize uint64
	// PageSize is the physical page size for round-robin placement.
	PageSize uint64
	// DirFormat selects the directory wire format whose storage and
	// invalidation behaviour the run models: "" or "full" (full-map
	// presence vector, the paper's model), "limited:i" (Dir_i_B limited
	// pointers, broadcast on overflow), or "coarse:K" (coarse vector, one
	// bit per K processors). The exact sharer set remains simulation
	// truth in every format — the simulated timeline, traffic, and every
	// classic counter are byte-identical across formats; compact formats
	// additionally report their architectural overshoot in Result.Dir
	// (extra invalidations, broadcasts, overflows) and their modeled
	// entry size in Result.Dir.EntryBits.
	DirFormat string
	// Protocol and Variant select the coherence policy.
	Protocol Protocol
	Variant  Variant
	// TrackFalseSharing enables the Dubois word-granularity classifier
	// (needed for Table 4; costs memory and time).
	TrackFalseSharing bool
	// RelaxedWrites replaces the sequentially consistent stall-on-write
	// model with a write-buffer (relaxed consistency) ablation — the
	// paper's Section 6 discussion: the write-stall savings of LS/AD
	// shrink, the traffic savings remain.
	RelaxedWrites bool
	// Scheduler selects the discrete-event scheduler: "runahead" (or
	// empty, the default, under which a processor services its operation
	// in place whenever it is the earliest pending one) or "serial" (the
	// reference: the same scheduling path, but every operation takes a
	// scheduler step; for differential testing and debugging). Both
	// produce byte-identical Results.
	Scheduler string
	// Check runs the coherence invariant checker online ("" or CheckOff
	// disables it). Checking is side-effect free: simulated Results are
	// byte-identical with it on or off; a violation aborts the run with a
	// structured error naming the block, CPUs, cache and directory states,
	// and cycle.
	Check CheckLevel
	// Faults injects deterministic faults, for validating the checker and
	// the retry machinery. Comma-separated parts: at most one
	// state-corruption class "class[@afterOp][:seed]" (flip-presence,
	// forge-owner, drop-inval, corrupt-home, silent-downgrade,
	// leak-ls-tag), plus any subset of message-fault classes
	// "class[@rate][:seed]" (drop-msg, dup-msg, reorder-msg) applied to
	// every network message. Examples: "forge-owner@500:7",
	// "drop-msg@1e-3", "drop-msg@1e-3,reorder-msg@1e-4:9". Empty disables
	// injection. Never set this for real measurements.
	Faults string
	// DirMSHRs bounds the number of concurrent transactions each home
	// node's directory controller can buffer: a request arriving while
	// every buffer is busy is NACKed and retried under Retry. Zero means
	// unlimited buffers (the classic infinitely-buffered model).
	DirMSHRs int
	// Retry configures the requester-side retry state machine for NACKed
	// and lost transactions: comma-separated key:value fields from
	// {max, base, cap, jitter}, e.g. "max:8,base:200,cap:5000,jitter:42"
	// (omitted fields default to max:16,base:100,cap:10000,jitter:1).
	// Empty disables retries — any NACK or message loss then trips the
	// forward-progress watchdog instead of hanging.
	Retry string
}

// DefaultConfig returns the paper's baseline configuration for the
// scientific workloads: four nodes, a direct-mapped 4 kB L1 and 64 kB L2
// with 16-byte blocks (Section 4.2).
func DefaultConfig() Config {
	return Config{
		Nodes:     4,
		L1:        CacheConfig{Size: 4 * 1024, Assoc: 1, AccessTime: 1},
		L2:        CacheConfig{Size: 64 * 1024, Assoc: 1, AccessTime: 10},
		BlockSize: 16,
		PageSize:  4096,
		Protocol:  Baseline,
	}
}

// OLTPConfig returns the paper's OLTP configuration: a two-way 64 kB L1
// and a direct-mapped 512 kB L2 with 32-byte blocks (Section 4.2).
func OLTPConfig() Config {
	c := DefaultConfig()
	c.L1 = CacheConfig{Size: 64 * 1024, Assoc: 2, AccessTime: 1}
	c.L2 = CacheConfig{Size: 512 * 1024, Assoc: 1, AccessTime: 10}
	c.BlockSize = 32
	return c
}

// WorkloadConfig returns the paper's configuration for the named
// workload: OLTPConfig for "oltp", DefaultConfig for the scientific
// workloads (and anything else).
func WorkloadConfig(workload string) Config {
	if workload == "oltp" {
		return OLTPConfig()
	}
	return DefaultConfig()
}

// engineConfig lowers the public Config to the engine's configuration.
func (c Config) engineConfig() (engine.Config, error) {
	name := string(c.Protocol)
	softwareExclusive := false
	if c.Protocol == EX {
		name = string(Baseline)
		softwareExclusive = true
	}
	kind, err := protocol.ParseKind(name)
	if err != nil {
		return engine.Config{}, err
	}
	if err := c.Variant.Validate(); err != nil {
		return engine.Config{}, fmt.Errorf("lsnuma: %w", err)
	}
	dirFormat, err := directory.ParseFormat(c.DirFormat)
	if err != nil {
		return engine.Config{}, fmt.Errorf("lsnuma: %w", err)
	}
	level, err := check.ParseLevel(string(c.Check))
	if err != nil {
		return engine.Config{}, fmt.Errorf("lsnuma: %w", err)
	}
	injector, msgFaults, err := fault.ParseSpecs(c.Faults)
	if err != nil {
		return engine.Config{}, fmt.Errorf("lsnuma: %w", err)
	}
	retry, err := protocol.ParseRetry(c.Retry)
	if err != nil {
		return engine.Config{}, fmt.Errorf("lsnuma: %w", err)
	}
	sched, err := engine.ParseSched(c.Scheduler)
	if err != nil {
		return engine.Config{}, fmt.Errorf("lsnuma: %w", err)
	}
	return engine.Config{
		Nodes: c.Nodes,
		L1: cache.Config{
			Size: c.L1.Size, Assoc: c.L1.Assoc,
			BlockSize: c.BlockSize, AccessTime: c.L1.AccessTime,
		},
		L2: cache.Config{
			Size: c.L2.Size, Assoc: c.L2.Assoc,
			BlockSize: c.BlockSize, AccessTime: c.L2.AccessTime,
		},
		PageSize:          c.PageSize,
		Protocol:          protocol.New(kind, c.Variant),
		TrackFalseSharing: c.TrackFalseSharing,
		SoftwareExclusive: softwareExclusive,
		RelaxedWrites:     c.RelaxedWrites,
		Sched:             sched,
		CheckLevel:        level,
		FaultInjector:     injector,
		DirMSHRs:          c.DirMSHRs,
		Retry:             retry,
		MsgFaults:         msgFaults,
		DirFormat:         dirFormat,
	}, nil
}

// Validate checks the configuration without building a machine.
func (c Config) Validate() error {
	ec, err := c.engineConfig()
	if err != nil {
		return err
	}
	return ec.Validate()
}

// ProtocolName returns the full protocol name including variant options.
func (c Config) ProtocolName() string {
	if c.Protocol == EX {
		return "EX"
	}
	kind, err := protocol.ParseKind(string(c.Protocol))
	if err != nil {
		return string(c.Protocol)
	}
	return protocol.New(kind, c.Variant).Name()
}
