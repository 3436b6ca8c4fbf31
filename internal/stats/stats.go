// Package stats collects the measurements the paper reports: execution
// time decomposed into busy / read-stall / write-stall cycles, network
// traffic split into read-related, write-related and other messages,
// global read misses classified by the home state of the block (Clean,
// Dirty, Clean-exclusive, Dirty-exclusive — Figures 3, 4, 6, 7), and the
// invalidation-traffic split into ownership acquisitions ("Global Inv's")
// and individual invalidation messages (Figure 5).
package stats

import "fmt"

// MsgType enumerates the coherence message types of the simulated
// protocol. The mapping to the paper's three traffic categories
// (read-related, write-related, other) is given by Class.
type MsgType uint8

const (
	// MsgReadReq is a read request from a requester to the home.
	MsgReadReq MsgType = iota
	// MsgReadFwd is the home forwarding a read to a dirty/exclusive owner.
	MsgReadFwd
	// MsgReadReply carries block data to a reader (from home or owner).
	MsgReadReply
	// MsgSharingWB is the owner's writeback to home on a read-on-dirty.
	MsgSharingWB
	// MsgOwnReq is an ownership acquisition (upgrade) request.
	MsgOwnReq
	// MsgOwnAck is the home's grant of an ownership acquisition.
	MsgOwnAck
	// MsgWriteReq is a read-exclusive (write miss) request.
	MsgWriteReq
	// MsgWriteFwd is the home forwarding a write miss to the owner.
	MsgWriteFwd
	// MsgWriteReply carries block data to a writer (from home or owner).
	MsgWriteReply
	// MsgInval is an individual invalidation sent to a sharing cache.
	MsgInval
	// MsgInvalAck acknowledges an invalidation.
	MsgInvalAck
	// MsgWriteback is a replacement writeback of a Modified block.
	MsgWriteback
	// MsgReplHint announces replacement of a clean (Shared/LStemp) block.
	MsgReplHint
	// MsgNotLS tells the home an exclusive grant was not a load-store
	// access after all (Section 3.1, case 2).
	MsgNotLS
	// MsgUpdate carries an updated copy of the block to the home when an
	// LStemp holder is downgraded by a foreign read.
	MsgUpdate
	// MsgRetry is a negative acknowledgement for a request that raced an
	// ongoing state change.
	MsgRetry
	// NumMsgTypes is the number of message types.
	NumMsgTypes
)

var msgNames = [NumMsgTypes]string{
	"ReadReq", "ReadFwd", "ReadReply", "SharingWB",
	"OwnReq", "OwnAck", "WriteReq", "WriteFwd", "WriteReply",
	"Inval", "InvalAck", "Writeback", "ReplHint", "NotLS", "Update", "Retry",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Class is the paper's traffic category.
type Class uint8

const (
	// ReadClass covers messages caused by read misses.
	ReadClass Class = iota
	// WriteClass covers messages caused by write misses, ownership
	// acquisitions and the resulting invalidations.
	WriteClass
	// OtherClass covers retries, replacement hints, writebacks and
	// protocol-extension bookkeeping (NotLS).
	OtherClass
	// NumClasses is the number of traffic categories.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ReadClass:
		return "read"
	case WriteClass:
		return "write"
	case OtherClass:
		return "other"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Class maps a message type to its traffic category, following the
// paper's split: read- and write-related messages, and Other (e.g. retry
// messages, replacements).
func (t MsgType) Class() Class {
	switch t {
	case MsgReadReq, MsgReadFwd, MsgReadReply, MsgSharingWB:
		return ReadClass
	case MsgOwnReq, MsgOwnAck, MsgWriteReq, MsgWriteFwd, MsgWriteReply, MsgInval, MsgInvalAck:
		return WriteClass
	default:
		return OtherClass
	}
}

// CarriesData reports whether the message carries a full cache block (in
// addition to the header).
func (t MsgType) CarriesData() bool {
	switch t {
	case MsgReadReply, MsgWriteReply, MsgSharingWB, MsgWriteback, MsgUpdate:
		return true
	default:
		return false
	}
}

// HeaderBytes is the size of a coherence message header.
const HeaderBytes = 8

// NumRetryBuckets is the size of the per-transaction retry histogram:
// buckets 1, 2, 3, 4-7, 8-15, >= 16 retries.
const NumRetryBuckets = 6

// RetryBucket maps a per-transaction retry count (>= 1) to its histogram
// bucket.
func RetryBucket(retries uint64) int {
	switch {
	case retries <= 1:
		return 0
	case retries <= 3:
		return int(retries) - 1
	case retries < 8:
		return 3
	case retries < 16:
		return 4
	default:
		return 5
	}
}

// RetryBucketLabels names the RetryHist buckets for reports.
var RetryBucketLabels = [NumRetryBuckets]string{"1", "2", "3", "4-7", "8-15", ">=16"}

// Resilience aggregates the resilient transaction layer's accounting:
// NACKs from saturated home transaction buffers, request retransmissions
// with their backoff-induced latency, and the injected message faults the
// retry machinery recovered from. All-zero on a classic run (unlimited
// buffers, reliable interconnect).
type Resilience struct {
	// Nacks counts negative acknowledgements sent by homes whose
	// transaction buffers were all busy (finite-MSHR contention only;
	// reorder-rejection NACKs appear in Msgs[MsgRetry] but not here).
	Nacks uint64
	// Retries counts request retransmissions from all causes: buffer
	// NACKs, lost-message timeouts, and reorder rejections.
	Retries uint64
	// TimeoutResends counts the subset of Retries triggered by a
	// lost-message timeout rather than an explicit NACK.
	TimeoutResends uint64
	// BackoffCycles accumulates the cycles spent waiting in retry
	// backoff (including loss-detection timeouts); MaxBackoff is the
	// largest single wait.
	BackoffCycles uint64
	MaxBackoff    uint64
	// MaxRetries is the largest number of retries any single transaction
	// needed; RetryHist buckets every recovered transaction by its retry
	// count (see RetryBucket).
	MaxRetries uint64
	RetryHist  [NumRetryBuckets]uint64
	// Injected message-fault activity: messages destroyed in transit,
	// duplicate copies delivered, and messages rejected for arriving out
	// of order.
	DroppedMsgs   uint64
	DupMsgs       uint64
	ReorderedMsgs uint64
}

// NoteBackoff records one backoff wait of the given length.
func (r *Resilience) NoteBackoff(cycles uint64) {
	r.BackoffCycles += cycles
	if cycles > r.MaxBackoff {
		r.MaxBackoff = cycles
	}
}

// NoteRecovered records a transaction (or message delivery) that needed
// `retries` retransmissions before succeeding.
func (r *Resilience) NoteRecovered(retries uint64) {
	if retries == 0 {
		return
	}
	r.RetryHist[RetryBucket(retries)]++
	if retries > r.MaxRetries {
		r.MaxRetries = retries
	}
}

// CPU accumulates per-processor cycle and access counts.
type CPU struct {
	Busy       uint64 // computation + L1 hit cycles
	ReadStall  uint64 // cycles stalled on read misses (L2 and global)
	WriteStall uint64 // cycles stalled on write misses/upgrades
	Loads      uint64
	Stores     uint64
	L1Hits     uint64
	L2Hits     uint64
	GlobalOps  uint64 // accesses that required a global action
}

// Total returns the processor's total cycle count.
func (c *CPU) Total() uint64 { return c.Busy + c.ReadStall + c.WriteStall }

// ReadMissClass classifies a global read miss by the home-node state of
// the block at the time of the request (Figures 3, 4, 6, 7, rightmost
// diagrams).
type ReadMissClass uint8

const (
	// MissClean: home state Uncached or Shared — memory is current.
	MissClean ReadMissClass = iota
	// MissDirty: block Modified in a remote cache via an ordinary
	// ownership acquisition.
	MissDirty
	// MissCleanExcl: block exclusively granted (tagged migratory or
	// load-store) and still clean at the holder.
	MissCleanExcl
	// MissDirtyExcl: block exclusively granted and already modified by
	// the holder.
	MissDirtyExcl
	// NumReadMissClasses is the number of read-miss classes.
	NumReadMissClasses
)

func (m ReadMissClass) String() string {
	switch m {
	case MissClean:
		return "Clean"
	case MissDirty:
		return "Dirty"
	case MissCleanExcl:
		return "Clean exclusive"
	case MissDirtyExcl:
		return "Dirty exclusive"
	default:
		return fmt.Sprintf("ReadMissClass(%d)", uint8(m))
	}
}

// Stats is the full measurement set for one simulation run.
type Stats struct {
	CPUs []CPU

	// Traffic counters, indexed by MsgType.
	Msgs     [NumMsgTypes]uint64
	MsgBytes [NumMsgTypes]uint64

	// Global read misses by home state.
	ReadMisses [NumReadMissClasses]uint64

	// Invalidation accounting (Figure 5): GlobalInv counts ownership
	// acquisitions — global write actions to blocks held Shared locally;
	// Invalidations counts the individual invalidation messages the home
	// generates.
	GlobalInv         uint64
	GlobalWriteMisses uint64
	Invalidations     uint64
	// WritesToShared counts global write actions that found the block in
	// Shared state at the home (upgrades plus write misses to shared
	// blocks) — the denominator of the paper's "invalidations per write
	// to a shared block" metric (§5.4 reports ~1.4 for OLTP).
	WritesToShared uint64

	// EliminatedOwnership counts stores satisfied locally by promoting an
	// LStemp copy — the ownership acquisitions the LS/AD optimization
	// removed.
	EliminatedOwnership uint64

	// ExclusiveGrants counts read requests answered with an exclusive
	// copy; FailedPredictions counts those later de-tagged by a foreign
	// access before the predicted store (NotLS events).
	ExclusiveGrants   uint64
	FailedPredictions uint64

	// Tagging activity.
	Taggings uint64

	// Resil is the resilient transaction layer's accounting (NACK/retry/
	// message-fault recovery); all-zero on classic runs.
	Resil Resilience

	// Dir is the compact directory wire format's accounting (limited-
	// pointer/coarse-vector extra invalidations); all-zero under the
	// default full-map format.
	Dir DirFormat
}

// DirFormat counts the architectural side effects of a compact directory
// wire format (engine Config.DirFormat). Like the resilience counters,
// these are out-of-band: the simulated timeline models the exact sharer
// set, so Results across formats differ only in this block.
type DirFormat struct {
	// ExtraInvals is the number of invalidations the wire format would
	// send beyond the exact sharer set (broadcast or coarse-group
	// overshoot); the victims hold no copy and just ack.
	ExtraInvals uint64
	// Broadcasts counts invalidation rounds served from an overflowed
	// limited-pointer entry (every cache except the requester is
	// addressed).
	Broadcasts uint64
	// Overflows counts limited-pointer capacity overflow events (an entry
	// crossing from exact pointers to broadcast mode).
	Overflows uint64
}

// New returns a Stats sized for n processors.
func New(n int) *Stats {
	return &Stats{CPUs: make([]CPU, n)}
}

// Reset zeroes every counter while keeping the CPUs slice, so a pooled
// machine's stats object (shared by reference with the network and
// engine) can be reused across runs.
func (s *Stats) Reset() {
	cpus := s.CPUs
	clear(cpus)
	*s = Stats{CPUs: cpus}
}

// AddMsg records one message of type t carrying blockSize bytes of data if
// the type is data-carrying.
func (s *Stats) AddMsg(t MsgType, blockSize uint64) {
	s.Msgs[t]++
	n := uint64(HeaderBytes)
	if t.CarriesData() {
		n += blockSize
	}
	s.MsgBytes[t] += n
}

// TotalMsgs returns the total message count.
func (s *Stats) TotalMsgs() uint64 {
	var n uint64
	for _, v := range s.Msgs {
		n += v
	}
	return n
}

// TotalBytes returns the total traffic in bytes.
func (s *Stats) TotalBytes() uint64 {
	var n uint64
	for _, v := range s.MsgBytes {
		n += v
	}
	return n
}

// ClassMsgs returns message counts grouped into the paper's categories.
func (s *Stats) ClassMsgs() [NumClasses]uint64 {
	var out [NumClasses]uint64
	for t := MsgType(0); t < NumMsgTypes; t++ {
		out[t.Class()] += s.Msgs[t]
	}
	return out
}

// ClassBytes returns byte counts grouped into the paper's categories.
func (s *Stats) ClassBytes() [NumClasses]uint64 {
	var out [NumClasses]uint64
	for t := MsgType(0); t < NumMsgTypes; t++ {
		out[t.Class()] += s.MsgBytes[t]
	}
	return out
}

// ExecTime returns the simulated execution time: the largest total cycle
// count over all processors (they start together; the slowest finishes
// last).
func (s *Stats) ExecTime() uint64 {
	var max uint64
	for i := range s.CPUs {
		if t := s.CPUs[i].Total(); t > max {
			max = t
		}
	}
	return max
}

// Sum returns the element-wise sum of the per-CPU counters.
func (s *Stats) Sum() CPU {
	var out CPU
	for i := range s.CPUs {
		c := &s.CPUs[i]
		out.Busy += c.Busy
		out.ReadStall += c.ReadStall
		out.WriteStall += c.WriteStall
		out.Loads += c.Loads
		out.Stores += c.Stores
		out.L1Hits += c.L1Hits
		out.L2Hits += c.L2Hits
		out.GlobalOps += c.GlobalOps
	}
	return out
}

// GlobalReadMisses returns the total number of global read misses.
func (s *Stats) GlobalReadMisses() uint64 {
	var n uint64
	for _, v := range s.ReadMisses {
		n += v
	}
	return n
}

// GlobalWrites returns the number of global write actions (ownership
// acquisitions plus write misses), excluding eliminated ones.
func (s *Stats) GlobalWrites() uint64 { return s.GlobalInv + s.GlobalWriteMisses }

// InvalidationsPerGlobalWrite returns the paper's "invalidations per write
// to a shared block" metric (§5.4 reports ~1.4 for OLTP): individual
// invalidation messages divided by global writes that found the block in
// Shared state.
func (s *Stats) InvalidationsPerGlobalWrite() float64 {
	if s.WritesToShared == 0 {
		return 0
	}
	return float64(s.Invalidations) / float64(s.WritesToShared)
}
