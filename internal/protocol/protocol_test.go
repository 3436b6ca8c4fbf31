package protocol

import (
	"testing"

	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
)

func freshEntry(p Protocol) *directory.Entry {
	e := &directory.Entry{Owner: memory.NoNode, LR: memory.NoNode, LastWriter: memory.NoNode}
	p.InitEntry(e)
	return e
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"Baseline": Baseline, "baseline": Baseline, "base": Baseline,
		"AD": AD, "ad": AD, "LS": LS, "ls": LS,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("MOESI"); err == nil {
		t.Error("ParseKind accepted unknown protocol")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Baseline: "Baseline", AD: "AD", LS: "LS"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", uint8(k), k.String())
		}
	}
	if Kind(7).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestNewPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(unknown) did not panic")
		}
	}()
	New(Kind(42), Variant{})
}

func TestVariantString(t *testing.T) {
	v := Variant{DefaultTagged: true, KeepOnWriteMiss: true, TagHysteresis: 2, DetagHysteresis: 3}
	s := v.String()
	for _, want := range []string{"default-tagged", "keep-on-write-miss", "tag-hysteresis=2", "detag-hysteresis=3"} {
		if !contains(s, want) {
			t.Errorf("Variant string %q missing %q", s, want)
		}
	}
	if (Variant{}).String() != "" {
		t.Error("zero variant string not empty")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestBaselineNeverGrantsExclusive(t *testing.T) {
	p := New(Baseline, Variant{DefaultTagged: true})
	e := freshEntry(p)
	if e.LS || e.Migratory {
		t.Fatal("baseline InitEntry set tags")
	}
	e.LS = true // even with stale tag state...
	e.Migratory = true
	if p.GrantExclusiveOnRead(e, 1) {
		t.Error("baseline granted exclusive read")
	}
	if p.NoteGlobalWrite(e, 2, true) {
		t.Error("baseline tagged a block")
	}
	if e.LastWriter != 2 {
		t.Error("baseline did not track last writer")
	}
}

// TestLSTaggingSequence exercises the defining pattern of Section 3.1: a
// global read by P followed by an ownership request from P tags the block;
// a subsequent read is granted exclusively.
func TestLSTaggingSequence(t *testing.T) {
	p := New(LS, Variant{})
	e := freshEntry(p)

	if p.GrantExclusiveOnRead(e, 1) {
		t.Fatal("untagged block granted exclusive")
	}
	p.NoteRead(e, 1)
	if e.LR != 1 {
		t.Fatal("LR not updated")
	}
	e.State = directory.Shared
	e.Sharers.Add(1)
	if !p.NoteGlobalWrite(e, 1, true) {
		t.Fatal("ownership by last reader did not tag")
	}
	if !e.LS {
		t.Fatal("LS bit not set")
	}
	if !p.GrantExclusiveOnRead(e, 2) {
		t.Fatal("tagged block not granted exclusive")
	}
}

func TestLSOwnershipByNonLastReaderLeavesTag(t *testing.T) {
	p := New(LS, Variant{})
	e := freshEntry(p)
	e.LS = true
	e.State = directory.Shared
	e.Sharers.Add(1)
	e.Sharers.Add(2)
	p.NoteRead(e, 2) // LR = 2
	if p.NoteGlobalWrite(e, 1, true) {
		t.Fatal("non-LR ownership tagged the block")
	}
	// Fig. 1's Shared→Dirty "Write" edge neither tags nor de-tags: the
	// LS bit keeps its value.
	if !e.LS {
		t.Fatal("non-LR ownership de-tagged the block")
	}
	e2 := freshEntry(p)
	p.NoteRead(e2, 2)
	e2.State = directory.Shared
	e2.Sharers.Add(1)
	e2.Sharers.Add(2)
	if p.NoteGlobalWrite(e2, 1, true) || e2.LS {
		t.Fatal("non-LR ownership tagged an untagged block")
	}
}

func TestLSWriteMissDetags(t *testing.T) {
	p := New(LS, Variant{})
	e := freshEntry(p)
	e.LS = true
	p.NoteRead(e, 1)
	// Write miss from node 2 (not holding a copy): de-tag, per §3.
	if p.NoteGlobalWrite(e, 2, false) {
		t.Fatal("write miss tagged the block")
	}
	if e.LS {
		t.Fatal("write miss did not de-tag")
	}
}

func TestLSKeepOnWriteMissVariant(t *testing.T) {
	p := New(LS, Variant{KeepOnWriteMiss: true})
	e := freshEntry(p)
	e.LS = true
	p.NoteRead(e, 1)
	// Write miss from the last reader (read copy was evicted between the
	// load and the store): the §5.5 heuristic keeps the LS bit.
	p.NoteGlobalWrite(e, 1, false)
	if !e.LS {
		t.Fatal("KeepOnWriteMiss variant cleared LS bit for LR write miss")
	}
	// But a write miss from a different node still de-tags.
	p.NoteGlobalWrite(e, 2, false)
	if e.LS {
		t.Fatal("KeepOnWriteMiss variant kept LS bit for foreign write miss")
	}
}

func TestLSFailedPredictionDetags(t *testing.T) {
	p := New(LS, Variant{})
	e := freshEntry(p)
	e.LS = true
	p.NoteFailedPrediction(e)
	if e.LS {
		t.Fatal("NotLS event did not de-tag")
	}
}

func TestLSDefaultTagged(t *testing.T) {
	p := New(LS, Variant{DefaultTagged: true})
	e := freshEntry(p)
	if !e.LS {
		t.Fatal("default-tagged variant did not set LS bit")
	}
	if !p.GrantExclusiveOnRead(e, 0) {
		t.Fatal("cold read of default-tagged block not exclusive")
	}
}

func TestLSTagHysteresis(t *testing.T) {
	p := New(LS, Variant{TagHysteresis: 2})
	e := freshEntry(p)
	e.State = directory.Shared
	e.Sharers.Add(1)
	p.NoteRead(e, 1)
	if p.NoteGlobalWrite(e, 1, true) || e.LS {
		t.Fatal("first tagging event tagged despite hysteresis")
	}
	p.NoteRead(e, 1)
	if !p.NoteGlobalWrite(e, 1, true) || !e.LS {
		t.Fatal("second tagging event did not tag")
	}
}

func TestLSTagHysteresisResetByDetag(t *testing.T) {
	p := New(LS, Variant{TagHysteresis: 2})
	e := freshEntry(p)
	e.State = directory.Shared
	e.Sharers.Add(1)
	p.NoteRead(e, 1)
	p.NoteGlobalWrite(e, 1, true) // TagCount = 1
	p.NoteFailedPrediction(e)     // resets the tag counter
	p.NoteRead(e, 1)
	if p.NoteGlobalWrite(e, 1, true) {
		t.Fatal("tag counter not reset by intervening de-tag event")
	}
}

func TestLSDetagHysteresis(t *testing.T) {
	p := New(LS, Variant{DetagHysteresis: 2})
	e := freshEntry(p)
	e.LS = true
	p.NoteFailedPrediction(e)
	if !e.LS {
		t.Fatal("first de-tag event cleared bit despite hysteresis")
	}
	p.NoteFailedPrediction(e)
	if e.LS {
		t.Fatal("second de-tag event did not clear bit")
	}
}

func TestLSDetagHysteresisResetByTag(t *testing.T) {
	p := New(LS, Variant{DetagHysteresis: 2})
	e := freshEntry(p)
	e.LS = true
	p.NoteFailedPrediction(e) // DetagCount = 1
	e.State = directory.Shared
	e.Sharers.Add(3)
	p.NoteRead(e, 3)
	p.NoteGlobalWrite(e, 3, true) // tagging event resets detag counter
	p.NoteFailedPrediction(e)
	if !e.LS {
		t.Fatal("de-tag counter not reset by intervening tag event")
	}
}

// TestHysteresisDepthBound: the deepest hysteresis the directory entry's
// 8-bit counters can count still fires, on its last event; a deeper or a
// negative depth fails Validate, since a depth of 257 or more wraps the
// counter and never changes the bit.
func TestHysteresisDepthBound(t *testing.T) {
	v := Variant{TagHysteresis: 256, DetagHysteresis: 256}
	if err := v.Validate(); err != nil {
		t.Fatalf("depth 256 rejected: %v", err)
	}
	p := New(LS, v)
	e := freshEntry(p)
	e.State = directory.Shared
	e.Sharers.Add(1)
	for i := 1; i <= 256; i++ {
		p.NoteRead(e, 1)
		if tagged := p.NoteGlobalWrite(e, 1, true); tagged != (i == 256) || e.LS != (i == 256) {
			t.Fatalf("tagging event %d: tagged %v, LS bit %v", i, tagged, e.LS)
		}
	}
	for i := 1; i <= 256; i++ {
		p.NoteFailedPrediction(e)
		if e.LS != (i < 256) {
			t.Fatalf("de-tagging event %d: LS bit %v", i, e.LS)
		}
	}
	for _, bad := range []Variant{
		{TagHysteresis: 257},
		{DetagHysteresis: 257},
		{TagHysteresis: -1},
		{DetagHysteresis: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// TestADMigratoryDetection exercises the ISCA '93 detection signature:
// exactly two copies, requester is one, last writer is the other.
func TestADMigratoryDetection(t *testing.T) {
	p := New(AD, Variant{})
	e := freshEntry(p)

	// P0 writes the block first (write miss): last writer = 0.
	p.NoteGlobalWrite(e, 0, false)
	if e.Migratory {
		t.Fatal("write miss tagged migratory")
	}
	// P1 reads (block now shared by {0,1} after the read-on-dirty), then
	// writes: detection fires.
	e.State = directory.Shared
	e.Sharers.Add(0)
	e.Sharers.Add(1)
	p.NoteRead(e, 1)
	if !p.NoteGlobalWrite(e, 1, true) || !e.Migratory {
		t.Fatal("migratory signature not detected")
	}
	if !p.GrantExclusiveOnRead(e, 2) {
		t.Fatal("migratory block not granted exclusive read")
	}
}

func TestADDetectionRequiresExactlyTwoCopies(t *testing.T) {
	p := New(AD, Variant{})
	e := freshEntry(p)
	e.LastWriter = 0
	e.State = directory.Shared
	e.Sharers.Add(0)
	e.Sharers.Add(1)
	e.Sharers.Add(2)
	if p.NoteGlobalWrite(e, 1, true) || e.Migratory {
		t.Fatal("detection fired with three sharers")
	}
}

func TestADDetectionRequiresOtherIsLastWriter(t *testing.T) {
	p := New(AD, Variant{})
	e := freshEntry(p)
	e.LastWriter = 1 // requester itself was the last writer
	e.State = directory.Shared
	e.Sharers.Add(0)
	e.Sharers.Add(1)
	if p.NoteGlobalWrite(e, 1, true) || e.Migratory {
		t.Fatal("detection fired when requester was last writer")
	}
}

func TestADNonMigratoryOwnershipDetags(t *testing.T) {
	p := New(AD, Variant{})
	e := freshEntry(p)
	e.Migratory = true
	e.LastWriter = 0
	e.State = directory.Shared
	e.Sharers.Add(0)
	e.Sharers.Add(1)
	e.Sharers.Add(2)
	p.NoteGlobalWrite(e, 1, true) // three sharers: pattern broken
	if e.Migratory {
		t.Fatal("broken migratory pattern did not de-tag")
	}
}

func TestADWriteMissToSharedDetags(t *testing.T) {
	p := New(AD, Variant{})
	e := freshEntry(p)
	e.Migratory = true
	e.State = directory.Shared
	e.Sharers.Add(0)
	e.Sharers.Add(1)
	p.NoteGlobalWrite(e, 2, false)
	if e.Migratory {
		t.Fatal("write miss to shared block did not de-tag")
	}
}

func TestADFailedPredictionDetags(t *testing.T) {
	p := New(AD, Variant{})
	e := freshEntry(p)
	e.Migratory = true
	p.NoteFailedPrediction(e)
	if e.Migratory {
		t.Fatal("failed prediction did not de-tag")
	}
}

func TestADDefaultTagged(t *testing.T) {
	p := New(AD, Variant{DefaultTagged: true})
	e := freshEntry(p)
	if !e.Migratory || !p.GrantExclusiveOnRead(e, 0) {
		t.Fatal("default migratory tagging not applied")
	}
}

func TestNamesIncludeVariant(t *testing.T) {
	if New(LS, Variant{}).Name() != "LS" {
		t.Error("plain LS name wrong")
	}
	if got := New(LS, Variant{DefaultTagged: true}).Name(); got != "LS+default-tagged" {
		t.Errorf("LS variant name = %q", got)
	}
	if got := New(AD, Variant{TagHysteresis: 2}).Name(); got != "AD+tag-hysteresis=2" {
		t.Errorf("AD variant name = %q", got)
	}
}

// TestLSMigratoryIsSubset verifies the paper's core claim at the policy
// level: every access pattern AD tags (migratory) is also tagged by LS,
// but LS additionally tags single-processor load-store sequences that AD
// misses (Section 2's super-set argument).
func TestLSMigratoryIsSubset(t *testing.T) {
	ls := New(LS, Variant{})
	ad := New(AD, Variant{})

	// Migratory pattern: P0 read-write, P1 read-write, P2 read-write...
	// both protocols should end up tagging.
	eLS, eAD := freshEntry(ls), freshEntry(ad)
	migrate := func(p Protocol, e *directory.Entry, from, to memory.NodeID) bool {
		// "to" reads (joins sharers with current holder "from"), then writes.
		e.State = directory.Shared
		e.Sharers.Clear()
		e.Sharers.Add(from)
		e.Sharers.Add(to)
		p.NoteRead(e, to)
		return p.NoteGlobalWrite(e, to, true)
	}
	// Establish last writer P0.
	ls.NoteGlobalWrite(eLS, 0, false)
	ad.NoteGlobalWrite(eAD, 0, false)
	migrate(ls, eLS, 0, 1)
	migrate(ad, eAD, 0, 1)
	if !eLS.LS {
		t.Error("LS failed to tag migratory pattern")
	}
	if !eAD.Migratory {
		t.Error("AD failed to tag migratory pattern")
	}

	// Single-processor load-store with eviction in between: P0 reads,
	// copy evicted, P0 writes (write miss). AD never tags; LS with the
	// keep heuristic retains, and plain LS tags on the in-cache pattern.
	eLS2, eAD2 := freshEntry(ls), freshEntry(ad)
	ls.NoteRead(eLS2, 0)
	ad.NoteRead(eAD2, 0)
	eLS2.State = directory.Shared
	eLS2.Sharers.Add(0)
	eAD2.State = directory.Shared
	eAD2.Sharers.Add(0)
	lsTag := ls.NoteGlobalWrite(eLS2, 0, true)
	adTag := ad.NoteGlobalWrite(eAD2, 0, true)
	if !lsTag || !eLS2.LS {
		t.Error("LS failed to tag single-processor load-store sequence")
	}
	if adTag || eAD2.Migratory {
		t.Error("AD tagged a non-migratory load-store sequence")
	}
}
