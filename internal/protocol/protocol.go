// Package protocol implements the three cache-coherence policies evaluated
// in the paper:
//
//   - Baseline: the DASH-like full-map write-invalidate protocol
//     (Section 4.2) with no read-exclusive optimization.
//   - AD: the adaptive protocol optimized for migratory sharing of
//     Stenström, Brorsson & Sandberg (ISCA '93), as used for comparison
//     throughout the paper's Section 5.
//   - LS: the paper's contribution (Section 3) — per-block last-reader
//     tracking and an LS bit that turns subsequent reads of load-store
//     blocks into exclusive grants.
//
// A Protocol is a pure policy object: the engine performs all message
// sequencing and timing and consults the protocol at the home node for two
// things — whether a read is granted an exclusive copy, and how the
// per-block tag state evolves on coherence events. This mirrors the
// paper's observation that LS and AD add the same kind (and amount) of
// complexity to the same baseline protocol.
package protocol

import (
	"fmt"
	"math"

	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
)

// Kind enumerates the implemented protocols.
type Kind uint8

const (
	// Baseline is the unmodified write-invalidate protocol.
	Baseline Kind = iota
	// AD is the adaptive migratory-sharing protocol.
	AD
	// LS is the load-store sequence protocol extension.
	LS
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case AD:
		return "AD"
	case LS:
		return "LS"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a protocol name (case-sensitive: "Baseline", "AD",
// "LS") to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "Baseline", "baseline", "base":
		return Baseline, nil
	case "AD", "ad":
		return AD, nil
	case "LS", "ls":
		return LS, nil
	default:
		return 0, fmt.Errorf("protocol: unknown protocol %q", s)
	}
}

// Variant selects the Section 5.5 ablation options.
type Variant struct {
	// DefaultTagged starts every block tagged (LS bit set, or migratory
	// for AD), so even cold read misses return exclusive copies.
	DefaultTagged bool
	// KeepOnWriteMiss suppresses de-tagging on an ownership request that
	// was not preceded by a read from the same processor (the alternative
	// de-tag heuristic of §5.5).
	KeepOnWriteMiss bool
	// TagHysteresis requires this many consecutive tagging events before
	// the block is tagged (0 and 1 mean immediate tagging; the paper
	// evaluates 2; at most 256, see Validate).
	TagHysteresis int
	// DetagHysteresis requires this many consecutive de-tagging events
	// before the tag is cleared (0 and 1 mean immediate; at most 256).
	DetagHysteresis int
}

func (v Variant) String() string {
	s := ""
	if v.DefaultTagged {
		s += "+default-tagged"
	}
	if v.KeepOnWriteMiss {
		s += "+keep-on-write-miss"
	}
	if v.TagHysteresis > 1 {
		s += fmt.Sprintf("+tag-hysteresis=%d", v.TagHysteresis)
	}
	if v.DetagHysteresis > 1 {
		s += fmt.Sprintf("+detag-hysteresis=%d", v.DetagHysteresis)
	}
	return s
}

// maxHysteresis is the deepest hysteresis a directory entry's 8-bit
// TagCount and DetagCount can count: tag and detag count an event only
// while the count stays below the depth, so a deeper one would wrap the
// counter and never change the bit.
const maxHysteresis = math.MaxUint8 + 1

// Validate checks that both hysteresis depths lie in 0..256.
func (v Variant) Validate() error {
	if v.TagHysteresis < 0 || v.TagHysteresis > maxHysteresis {
		return fmt.Errorf("protocol: tag hysteresis %d outside 0..%d", v.TagHysteresis, maxHysteresis)
	}
	if v.DetagHysteresis < 0 || v.DetagHysteresis > maxHysteresis {
		return fmt.Errorf("protocol: detag hysteresis %d outside 0..%d", v.DetagHysteresis, maxHysteresis)
	}
	return nil
}

// tag records a tagging event on e, whose tag bit is *bit (LS's LS bit,
// AD's migratory bit). Under TagHysteresis the bit is set only by the
// TagHysteresis-th consecutive event; any event clears e's de-tag count.
// It reports whether the event set a bit that was clear.
func (v Variant) tag(e *directory.Entry, bit *bool) bool {
	e.DetagCount = 0
	if v.TagHysteresis > 1 {
		if int(e.TagCount)+1 < v.TagHysteresis {
			e.TagCount++
			return false
		}
		e.TagCount = 0
	}
	was := *bit
	*bit = true
	return !was
}

// detag records a de-tagging event on e, whose tag bit is *bit: under
// DetagHysteresis the bit is cleared only by the DetagHysteresis-th
// consecutive event, and any event clears e's tag count.
func (v Variant) detag(e *directory.Entry, bit *bool) {
	e.TagCount = 0
	if v.DetagHysteresis > 1 {
		if int(e.DetagCount)+1 < v.DetagHysteresis {
			e.DetagCount++
			return
		}
		e.DetagCount = 0
	}
	*bit = false
}

// Protocol is the policy interface consulted by the engine's home-node
// (memory controller) logic.
type Protocol interface {
	// Name returns a human-readable protocol name including variant.
	Name() string
	// Kind returns the protocol family.
	Kind() Kind
	// InitEntry sets the initial tag state of a freshly allocated
	// directory entry (used by the default-tagging ablation).
	InitEntry(e *directory.Entry)
	// GrantExclusiveOnRead reports whether a global read by req should
	// return an exclusive (LStemp) copy. Called when the home state is
	// Uncached or Dirty, or Excl with a modified owner — i.e. the cases
	// where Fig. 1 takes the "Read (LS=1)" edge. Reads of Shared blocks
	// are always granted shared.
	GrantExclusiveOnRead(e *directory.Entry, req memory.NodeID) bool
	// NoteRead records a global read by req at the home (LR update).
	NoteRead(e *directory.Entry, req memory.NodeID)
	// NoteGlobalWrite records a global write action by req at the home:
	// an ownership acquisition (holdsCopy=true, req has a Shared copy)
	// or a write miss (holdsCopy=false). Called before the directory
	// entry's presence information is updated for the write. Returns
	// true if the event tagged the block.
	NoteGlobalWrite(e *directory.Entry, req memory.NodeID, holdsCopy bool) bool
	// NoteFailedPrediction records that an exclusive grant turned out not
	// to be a load-store/migratory access (a foreign processor accessed
	// the block while the holder's copy was still clean) — the NotLS
	// de-tag of Fig. 1 and AD's reversion to ordinary sharing.
	NoteFailedPrediction(e *directory.Entry)
}

// New constructs the protocol policy for kind with the given variant
// options. Variant options that do not apply to a protocol family are
// ignored (Baseline ignores all of them).
func New(kind Kind, v Variant) Protocol {
	switch kind {
	case Baseline:
		return baseline{}
	case AD:
		return &adaptive{variant: v}
	case LS:
		return &loadstore{variant: v}
	default:
		panic(fmt.Sprintf("protocol: unknown kind %d", kind))
	}
}

// baseline never grants exclusive reads and keeps no tag state.
type baseline struct{}

func (baseline) Name() string                             { return "Baseline" }
func (baseline) Kind() Kind                               { return Baseline }
func (baseline) InitEntry(*directory.Entry)               {}
func (baseline) NoteRead(*directory.Entry, memory.NodeID) {}
func (baseline) NoteFailedPrediction(*directory.Entry)    {}

func (baseline) GrantExclusiveOnRead(*directory.Entry, memory.NodeID) bool { return false }

func (baseline) NoteGlobalWrite(e *directory.Entry, req memory.NodeID, holdsCopy bool) bool {
	e.LastWriter = req // harmless bookkeeping, keeps stats uniform
	return false
}
