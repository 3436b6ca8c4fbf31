package protocol

import (
	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
)

// adaptive implements AD, the adaptive cache-coherence protocol optimized
// for migratory sharing of Stenström, Brorsson & Sandberg (ISCA '93),
// which the paper uses as the previous-work comparison point (Section 2.1,
// Section 5).
//
// Migratory sharing is detected at the home on an ownership acquisition:
// the block is tagged migratory when exactly two caches hold copies, the
// requester is one of them, and the last writer is the *other* holder —
// the signature of data moving processor to processor in read-modify-write
// fashion. While tagged, read requests to Dirty (or exclusively granted)
// blocks return exclusive copies, combining the read with the ownership
// acquisition.
//
// The prediction reverts to ordinary write-invalidate handling when the
// pattern breaks: a foreign access reaches a block whose exclusive holder
// never wrote it (the read was not part of a load-store sequence), or an
// ownership acquisition arrives that does not match the detection
// signature.
type adaptive struct {
	variant Variant
}

func (p *adaptive) Name() string { return "AD" + p.variant.String() }
func (p *adaptive) Kind() Kind   { return AD }

func (p *adaptive) InitEntry(e *directory.Entry) {
	if p.variant.DefaultTagged {
		e.Migratory = true
	}
}

func (p *adaptive) GrantExclusiveOnRead(e *directory.Entry, req memory.NodeID) bool {
	return e.Migratory
}

func (p *adaptive) NoteRead(e *directory.Entry, req memory.NodeID) {
	e.LR = req // maintained uniformly for the classification machinery
}

func (p *adaptive) NoteGlobalWrite(e *directory.Entry, req memory.NodeID, holdsCopy bool) bool {
	tagged := false
	if holdsCopy && e.State == directory.Shared {
		other := e.Sharers.Other(req)
		if other != memory.NoNode && other == e.LastWriter {
			// Exactly two copies, requester is one, last writer is the
			// other: migratory detection fires.
			tagged = p.variant.tag(e, &e.Migratory)
		} else {
			// The ownership acquisition does not match the migratory
			// signature: adapt back.
			p.variant.detag(e, &e.Migratory)
		}
	} else if !holdsCopy && e.State == directory.Shared {
		// A write miss invalidating multiple read-shared copies is not
		// migratory behaviour.
		p.variant.detag(e, &e.Migratory)
	}
	e.LastWriter = req
	return tagged
}

func (p *adaptive) NoteFailedPrediction(e *directory.Entry) {
	p.variant.detag(e, &e.Migratory)
}
