package protocol

import (
	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
)

// loadstore implements the paper's LS protocol extension (Section 3.1).
//
// Tag state per block: LR (last reader) and the LS bit. The rules:
//
//   - Every global read updates LR to the requesting node.
//   - An ownership acquisition whose source equals LR tags the block LS.
//   - A write request from a processor not holding a copy de-tags the
//     block (unless the KeepOnWriteMiss heuristic variant is enabled).
//   - A foreign access to a block held in LStemp (an exclusive read grant
//     whose predicted store never arrived) de-tags the block — the NotLS
//     transition of Fig. 1.
//   - While the LS bit is set, reads of Uncached or Dirty blocks are
//     granted exclusive copies; reads of Shared blocks stay shared (the
//     Fig. 1 Shared state has no exclusive-read edge, which protects
//     read-shared data from spurious invalidations).
//
// Hysteresis variants (§5.5) gate the bit flips behind small counters.
type loadstore struct {
	variant Variant
}

func (p *loadstore) Name() string { return "LS" + p.variant.String() }
func (p *loadstore) Kind() Kind   { return LS }

func (p *loadstore) InitEntry(e *directory.Entry) {
	if p.variant.DefaultTagged {
		e.LS = true
	}
}

func (p *loadstore) GrantExclusiveOnRead(e *directory.Entry, req memory.NodeID) bool {
	return e.LS
}

func (p *loadstore) NoteRead(e *directory.Entry, req memory.NodeID) {
	e.LR = req
}

func (p *loadstore) NoteGlobalWrite(e *directory.Entry, req memory.NodeID, holdsCopy bool) bool {
	e.LastWriter = req
	if holdsCopy && req == e.LR {
		// Ownership request from the last reader: the defining
		// load-store sequence event.
		return p.variant.tag(e, &e.LS)
	}
	if !holdsCopy {
		// Write request from a processor without a copy: the access was
		// not part of a load-store sequence — the paper's explicit
		// de-tagging rule ("a block is also de-tagged when the home node
		// receives a write request from a processor not holding a copy
		// of the block in its cache").
		if p.variant.KeepOnWriteMiss && req == e.LR {
			// §5.5 heuristic: the read may have been evicted between
			// the load and the store; keep the LS bit value.
			return false
		}
		p.variant.detag(e, &e.LS)
		return false
	}
	// Ownership request from a holder that was not the last reader:
	// neither the tagging rule nor a de-tagging rule applies (Fig. 1's
	// Shared→Dirty "Write" edge); the LS bit keeps its value.
	return false
}

func (p *loadstore) NoteFailedPrediction(e *directory.Entry) {
	p.variant.detag(e, &e.LS)
}
