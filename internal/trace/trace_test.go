package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"lsnuma/internal/cache"
	"lsnuma/internal/engine"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

func machine(t *testing.T, kind protocol.Kind) *engine.Machine {
	t.Helper()
	m, err := engine.NewMachine(engine.Config{
		Nodes:     4,
		L1:        cache.Config{Size: 4 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 1},
		L2:        cache.Config{Size: 64 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 10},
		PageSize:  4096,
		Timing:    engine.DefaultTiming(),
		Protocol:  protocol.New(kind, protocol.Variant{}),
		MaxCycles: 1_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	ops := []Op{
		{CPU: 0, Addr: 0x1234, Size: 4, Kind: memory.Load, Source: memory.SrcApp, Compute: 17},
		{CPU: 3, Addr: 0xfff0, Size: 16, Kind: memory.Store, Source: memory.SrcOS, Compute: 0},
		{CPU: 1, Addr: 0x40, Size: 4, Kind: memory.Store, Source: memory.SrcLib, RMW: true, Compute: 9},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d", w.Len())
	}

	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CPUs != 4 || len(tr.Ops) != len(ops) {
		t.Fatalf("trace = %d cpus, %d ops", tr.CPUs, len(tr.Ops))
	}
	for i, got := range tr.Ops {
		if got != ops[i] {
			t.Errorf("op %d = %+v, want %+v", i, got, ops[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		var ops []Op
		for _, v := range raw {
			ops = append(ops, Op{
				CPU:     memory.NodeID(v % 4),
				Addr:    memory.Addr(v >> 8),
				Size:    uint32(v%64) + 1,
				Kind:    memory.Kind(v >> 7 & 1),
				Source:  memory.Source(v >> 5 & 3),
				RMW:     v>>4&1 == 1,
				Compute: uint32(v >> 32 & 0xffff),
			})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 4)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if err := w.Append(op); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		tr, err := Read(&buf)
		if err != nil || len(tr.Ops) != len(ops) {
			return false
		}
		for i := range ops {
			if tr.Ops[i] != ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("LST"),
		[]byte("XXXX\x01\x00\x04\x00"),
		[]byte("LSTR\x09\x00\x04\x00"), // bad version
		[]byte("LSTR\x01\x00\x00\x00"), // zero cpus
		append([]byte("LSTR\x01\x00\x04\x00"), 1, 2, 3),             // truncated record
		append([]byte("LSTR\x01\x00\x02\x00"), make([]byte, 16)...), // record CPU ok (0)
	}
	for i, c := range cases[:6] {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Case 6 is valid: one record for CPU 0.
	if _, err := Read(bytes.NewReader(cases[6])); err != nil {
		t.Errorf("valid single-record trace rejected: %v", err)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err == nil {
		t.Error("zero cpus accepted")
	}
	if _, err := NewWriter(&buf, 256); err == nil {
		t.Error("256 cpus accepted")
	}
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Op{CPU: 5}); err == nil {
		t.Error("out-of-range CPU accepted")
	}
	if err := w.Append(Op{CPU: 0, Size: 1 << 20}); err == nil {
		t.Error("oversized op accepted")
	}
}

// TestCaptureReplayEquivalence captures a live run's reference stream and
// replays it on a fresh machine with the same protocol: access counts and
// global-write behaviour must match exactly (timing may differ slightly
// because replay resolves interleaving anew).
func TestCaptureReplayEquivalence(t *testing.T) {
	prog := func(p *engine.Proc) {
		r := p.Rand()
		for i := 0; i < 200; i++ {
			a := memory.Addr(r.Intn(64) * 16)
			switch r.Intn(3) {
			case 0:
				p.Write(a)
			case 1:
				p.RMW(a)
			default:
				p.Read(a)
			}
			p.Compute(r.Intn(60))
		}
	}

	// Capture.
	live := machine(t, protocol.LS)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	errFn := Capture(live, w)
	if err := live.Run([]engine.Program{prog, prog, prog, prog}); err != nil {
		t.Fatal(err)
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Replay.
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := machine(t, protocol.LS)
	if err := replay.Run(tr.Programs()); err != nil {
		t.Fatal(err)
	}
	if err := replay.CheckCoherence(); err != nil {
		t.Error(err)
	}

	ls, rs := live.Stats().Sum(), replay.Stats().Sum()
	if ls.Loads != rs.Loads || ls.Stores != rs.Stores {
		t.Errorf("replay access counts %d/%d != live %d/%d", rs.Loads, rs.Stores, ls.Loads, ls.Stores)
	}
	// Per-CPU streams are identical, so per-CPU load/store counts match.
	for i := 0; i < 4; i++ {
		l, r := live.Stats().CPUs[i], replay.Stats().CPUs[i]
		if l.Loads != r.Loads || l.Stores != r.Stores {
			t.Errorf("CPU %d: replay %d/%d != live %d/%d", i, r.Loads, r.Stores, l.Loads, l.Stores)
		}
	}
}

// TestReplayProtocolComparison replays one captured stream under all three
// protocols — the trace-driven A/B methodology.
func TestReplayProtocolComparison(t *testing.T) {
	prog := func(p *engine.Proc) {
		for i := 0; i < 100; i++ {
			a := memory.Addr((i % 16) * 16)
			p.Read(a)
			p.Write(a)
			p.Compute(40)
		}
	}
	live := machine(t, protocol.Baseline)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	errFn := Capture(live, w)
	if err := live.Run([]engine.Program{prog, prog}); err != nil {
		t.Fatal(err)
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	elim := map[protocol.Kind]uint64{}
	for _, kind := range []protocol.Kind{protocol.Baseline, protocol.AD, protocol.LS} {
		m := machine(t, kind)
		if err := m.Run(tr.Programs()); err != nil {
			t.Fatal(err)
		}
		elim[kind] = m.Stats().EliminatedOwnership
	}
	if elim[protocol.Baseline] != 0 {
		t.Errorf("baseline eliminated %d", elim[protocol.Baseline])
	}
	if elim[protocol.LS] == 0 {
		t.Error("LS eliminated nothing on the replayed load-store stream")
	}
	// Both techniques cover this migratory stream; they may differ by a
	// few sequences where interleavings land differently.
	if elim[protocol.LS]*10 < elim[protocol.AD]*9 {
		t.Errorf("LS (%d) well below AD (%d) on replay", elim[protocol.LS], elim[protocol.AD])
	}
}
