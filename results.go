package lsnuma

import (
	"lsnuma/internal/classify"
	"lsnuma/internal/memory"
	"lsnuma/internal/stats"
)

// Result is the full measurement set of one simulation run, mirroring the
// quantities the paper reports.
type Result struct {
	Workload string
	Protocol string
	Scale    string
	Nodes    int

	// Execution time (cycles of the slowest processor) and its
	// machine-wide decomposition (Figures 3, 4, 6, 7, left diagrams).
	ExecTime   uint64
	Busy       uint64
	ReadStall  uint64
	WriteStall uint64

	// Traffic (middle diagrams): message and byte counts total and per
	// category (read-related, write-related, other).
	Msgs       uint64
	Bytes      uint64
	ClassMsgs  [3]uint64
	ClassBytes [3]uint64

	// Global read misses by home state (right diagrams): Clean, Dirty,
	// Clean-exclusive, Dirty-exclusive.
	ReadMisses [4]uint64

	// Invalidation accounting (Figure 5).
	GlobalInv                   uint64 // ownership acquisitions (upgrades)
	GlobalWriteMisses           uint64
	Invalidations               uint64 // individual invalidation messages
	InvalidationsPerGlobalWrite float64

	// Optimization activity.
	EliminatedOwnership uint64
	ExclusiveGrants     uint64
	FailedPredictions   uint64

	// Load-store sequence analysis (Tables 2 and 3).
	Sources  [3]SourceRow
	Total    SourceRow
	Coverage CoverageRow

	// RegionCoverage attributes load-store coverage per named data region
	// (allocator region names), for diagnostics and region reports.
	RegionCoverage map[string]CoverageRow

	// SequenceDistance histograms the number of intervening global
	// accesses between each load-store sequence's read and write
	// (buckets: 0, 1-3, 4-15, 16-63, 64-255, ≥256). Large distances are
	// what defeat instruction-centric (static) detection on OLTP (§2).
	SequenceDistance [6]uint64

	// False sharing (Table 4); populated when TrackFalseSharing is set.
	MissKinds        [4]uint64 // cold, replacement, true-sharing, false-sharing
	FalseSharingFrac float64
	// FalseSharingSteadyFrac excludes cold misses from the denominator
	// (the paper's long runs are effectively cold-free).
	FalseSharingSteadyFrac float64

	// Resil summarizes the resilient transaction layer's activity: NACKs
	// from saturated home buffers, retries with their backoff-induced
	// latency, the per-transaction retry histogram, and injected message
	// faults survived. All-zero on classic (reliable, unlimited-buffer)
	// runs.
	Resil ResilRow

	// Dir summarizes the directory wire format (Config.DirFormat): its
	// name, modeled per-block entry size, and — for the compact formats —
	// the architectural invalidation overshoot. The counters are all-zero
	// under the default full-map format, and they are the only fields a
	// compact format changes: everything else in the Result is
	// byte-identical across formats.
	Dir DirRow

	// Access counts.
	Loads, Stores uint64

	// PerCPU is the per-processor cycle decomposition (load imbalance
	// shows up as busy-time spread: idle spinning is accounted as busy).
	PerCPU []CPURow
}

// CPURow is one processor's cycle and access counts.
type CPURow struct {
	Busy, ReadStall, WriteStall uint64
	Loads, Stores               uint64
}

// ResilRow is the resilience measurement block of a Result.
type ResilRow struct {
	// Nacks counts NACKs from saturated home transaction buffers
	// (Config.DirMSHRs); Retries counts request retransmissions from all
	// causes, of which TimeoutResends recovered lost messages.
	Nacks          uint64
	Retries        uint64
	TimeoutResends uint64
	// Backoff-induced latency: total cycles spent waiting between
	// retries, and the largest single wait.
	BackoffCycles uint64
	MaxBackoff    uint64
	// MaxRetries is the worst per-transaction retry count; MeanRetries is
	// retries per global transaction; RetryHist buckets recovered
	// transactions by retry count (1, 2, 3, 4-7, 8-15, >=16).
	MaxRetries  uint64
	MeanRetries float64
	RetryHist   [6]uint64
	// Injected message-fault activity (Config.Faults drop-msg/dup-msg/
	// reorder-msg).
	DroppedMsgs   uint64
	DupMsgs       uint64
	ReorderedMsgs uint64
}

// DirRow is the directory-wire-format measurement block of a Result.
type DirRow struct {
	// Format is the canonical format name ("full", "limited:4",
	// "coarse:8").
	Format string
	// EntryBits is the modeled presence-tracking storage per directory
	// entry in bits: P for full-map, i*ceil(log2 P)+1 for limited:i,
	// ceil(P/K) for coarse:K.
	EntryBits int
	// ExtraInvals counts invalidations the format would send beyond the
	// exact sharer set (broadcast or coarse-group overshoot).
	ExtraInvals uint64
	// Broadcasts counts invalidation rounds served from an overflowed
	// limited-pointer entry.
	Broadcasts uint64
	// Overflows counts limited-pointer capacity overflow events.
	Overflows uint64
}

// SourceRow is one column of Table 2.
type SourceRow struct {
	GlobalWrites    uint64
	LoadStoreWrites uint64
	MigratoryWrites uint64
	LoadStoreFrac   float64 // load-store of all global writes
	MigratoryFrac   float64 // migratory of load-store sequences
}

// CoverageRow is one row of Table 3.
type CoverageRow struct {
	LoadStoreWrites     uint64
	LoadStoreEliminated uint64
	LoadStoreCoverage   float64
	MigratoryWrites     uint64
	MigratoryEliminated uint64
	MigratoryCoverage   float64
}

// GlobalWrites returns ownership acquisitions plus write misses.
func (r *Result) GlobalWrites() uint64 { return r.GlobalInv + r.GlobalWriteMisses }

// GlobalReadMisses returns the total global read-miss count.
func (r *Result) GlobalReadMisses() uint64 {
	var n uint64
	for _, v := range r.ReadMisses {
		n += v
	}
	return n
}

// fillResult converts the collectors into a Result.
func fillResult(r *Result, st *stats.Stats, seq *classify.Sequences, fs *classify.FalseSharing) {
	sum := st.Sum()
	r.PerCPU = make([]CPURow, len(st.CPUs))
	for i := range st.CPUs {
		c := &st.CPUs[i]
		r.PerCPU[i] = CPURow{
			Busy: c.Busy, ReadStall: c.ReadStall, WriteStall: c.WriteStall,
			Loads: c.Loads, Stores: c.Stores,
		}
	}
	r.ExecTime = st.ExecTime()
	r.Busy = sum.Busy
	r.ReadStall = sum.ReadStall
	r.WriteStall = sum.WriteStall
	r.Loads = sum.Loads
	r.Stores = sum.Stores

	r.Msgs = st.TotalMsgs()
	r.Bytes = st.TotalBytes()
	cm := st.ClassMsgs()
	cb := st.ClassBytes()
	for i := 0; i < 3; i++ {
		r.ClassMsgs[i] = cm[i]
		r.ClassBytes[i] = cb[i]
	}
	for i := 0; i < 4; i++ {
		r.ReadMisses[i] = st.ReadMisses[i]
	}
	r.GlobalInv = st.GlobalInv
	r.GlobalWriteMisses = st.GlobalWriteMisses
	r.Invalidations = st.Invalidations
	r.InvalidationsPerGlobalWrite = st.InvalidationsPerGlobalWrite()
	r.EliminatedOwnership = st.EliminatedOwnership
	r.ExclusiveGrants = st.ExclusiveGrants
	r.FailedPredictions = st.FailedPredictions

	rs := &st.Resil
	r.Resil = ResilRow{
		Nacks: rs.Nacks, Retries: rs.Retries, TimeoutResends: rs.TimeoutResends,
		BackoffCycles: rs.BackoffCycles, MaxBackoff: rs.MaxBackoff,
		MaxRetries: rs.MaxRetries, RetryHist: rs.RetryHist,
		DroppedMsgs: rs.DroppedMsgs, DupMsgs: rs.DupMsgs, ReorderedMsgs: rs.ReorderedMsgs,
	}
	if txns := st.GlobalReadMisses() + st.GlobalWrites(); txns > 0 {
		r.Resil.MeanRetries = float64(rs.Retries) / float64(txns)
	}
	r.Dir.ExtraInvals = st.Dir.ExtraInvals
	r.Dir.Broadcasts = st.Dir.Broadcasts
	r.Dir.Overflows = st.Dir.Overflows

	for s := memory.Source(0); s < memory.NumSources; s++ {
		r.Sources[s] = sourceRow(seq.Sources[s])
	}
	r.Total = sourceRow(seq.Total())
	for i, v := range seq.Distance {
		r.SequenceDistance[i] = v
	}
	if len(seq.Regions) > 0 {
		r.RegionCoverage = make(map[string]CoverageRow, len(seq.Regions))
		for name, c := range seq.Regions {
			r.RegionCoverage[name] = CoverageRow{
				LoadStoreWrites:     c.LoadStoreWrites,
				LoadStoreEliminated: c.LoadStoreEliminated,
				LoadStoreCoverage:   c.LoadStoreCoverage(),
				MigratoryWrites:     c.MigratoryWrites,
				MigratoryEliminated: c.MigratoryEliminated,
				MigratoryCoverage:   c.MigratoryCoverage(),
			}
		}
	}
	cov := seq.Cov
	r.Coverage = CoverageRow{
		LoadStoreWrites:     cov.LoadStoreWrites,
		LoadStoreEliminated: cov.LoadStoreEliminated,
		LoadStoreCoverage:   cov.LoadStoreCoverage(),
		MigratoryWrites:     cov.MigratoryWrites,
		MigratoryEliminated: cov.MigratoryEliminated,
		MigratoryCoverage:   cov.MigratoryCoverage(),
	}
	if fs != nil {
		for i := 0; i < 4; i++ {
			r.MissKinds[i] = fs.Misses[i]
		}
		r.FalseSharingFrac = fs.FalseSharingFrac()
		r.FalseSharingSteadyFrac = fs.SteadyStateFrac()
	}
}

func sourceRow(c classify.SourceCounters) SourceRow {
	return SourceRow{
		GlobalWrites:    c.GlobalWrites,
		LoadStoreWrites: c.LoadStoreWrites,
		MigratoryWrites: c.MigratoryWrites,
		LoadStoreFrac:   c.LoadStoreFrac(),
		MigratoryFrac:   c.MigratoryFrac(),
	}
}
