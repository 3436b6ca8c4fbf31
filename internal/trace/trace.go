// Package trace implements memory-reference trace capture and replay for
// the simulator. The paper's platform (SimICS) is program-driven, and so
// is this engine; trace support adds the classic companion methodology:
//
//   - Capture: record every memory operation a program-driven run issues
//     into a compact binary trace (one file per machine), preserving the
//     per-processor streams and source-class tags.
//
//   - Replay: drive a machine from a captured trace instead of live
//     programs. Timing-dependent interleaving is re-resolved by the
//     engine's scheduler (trace-driven simulation's usual approximation),
//     which makes replay useful for protocol A/B comparisons over an
//     identical reference stream and for regression corpora.
//
// The binary format is versioned and self-describing:
//
//	header:  magic "LSTR" | u16 version | u16 cpus
//	records: u8 kindAndSource | u8 cpu | u16 size | u32 computeGap | u64 addr
//
// computeGap is the busy time (Compute cycles) the processor spent since
// its previous record, so replay reproduces the original compute/access
// mix.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"lsnuma/internal/engine"
	"lsnuma/internal/memory"
)

// Magic identifies a trace stream.
const Magic = "LSTR"

// Version is the current trace format version.
const Version = 1

// Op is one traced memory operation: the record the engine's recorder
// hook hands Capture. A trace stores every field but At; replay re-times
// each operation, so At reads zero in a loaded trace.
type Op = engine.OpRecord

const (
	flagStore = 1 << 0
	flagRMW   = 1 << 1
	srcShift  = 4
)

// record is the 16-byte wire layout.
type record struct {
	Flags uint8
	CPU   uint8
	Size  uint16
	Gap   uint32
	Addr  uint64
}

// Writer streams trace records.
type Writer struct {
	w    *bufio.Writer
	cpus int
	n    uint64
}

// NewWriter writes a trace header for a machine with the given processor
// count and returns the writer.
func NewWriter(w io.Writer, cpus int) (*Writer, error) {
	if cpus < 1 || cpus > 255 {
		return nil, fmt.Errorf("trace: cpu count %d outside 1..255", cpus)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(Version)); err != nil {
		return nil, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(cpus)); err != nil {
		return nil, err
	}
	return &Writer{w: bw, cpus: cpus}, nil
}

// Append writes one operation.
func (t *Writer) Append(op Op) error {
	if int(op.CPU) < 0 || int(op.CPU) >= t.cpus {
		return fmt.Errorf("trace: op CPU %d outside 0..%d", op.CPU, t.cpus-1)
	}
	if op.Size > 0xffff {
		return fmt.Errorf("trace: op size %d too large", op.Size)
	}
	flags := uint8(op.Source) << srcShift
	if op.Kind == memory.Store {
		flags |= flagStore
	}
	if op.RMW {
		flags |= flagRMW
	}
	rec := record{
		Flags: flags,
		CPU:   uint8(op.CPU),
		Size:  uint16(op.Size),
		Gap:   op.Compute,
		Addr:  uint64(op.Addr),
	}
	if err := binary.Write(t.w, binary.LittleEndian, rec); err != nil {
		return err
	}
	t.n++
	return nil
}

// Len returns the number of records written.
func (t *Writer) Len() uint64 { return t.n }

// Flush flushes the underlying buffer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Trace is a fully loaded trace.
type Trace struct {
	CPUs int
	Ops  []Op
}

// Read loads a complete trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version, cpus uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &cpus); err != nil {
		return nil, err
	}
	if cpus < 1 || cpus > 255 {
		return nil, fmt.Errorf("trace: bad cpu count %d", cpus)
	}
	tr := &Trace{CPUs: int(cpus)}
	for {
		var rec record
		err := binary.Read(br, binary.LittleEndian, &rec)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: truncated record %d", len(tr.Ops))
		}
		if err != nil {
			return nil, err
		}
		if int(rec.CPU) >= int(cpus) {
			return nil, fmt.Errorf("trace: record %d has CPU %d of %d", len(tr.Ops), rec.CPU, cpus)
		}
		op := Op{
			CPU:     memory.NodeID(rec.CPU),
			Addr:    memory.Addr(rec.Addr),
			Size:    uint32(rec.Size),
			Compute: rec.Gap,
			Source:  memory.Source(rec.Flags >> srcShift),
		}
		if rec.Flags&flagStore != 0 {
			op.Kind = memory.Store
		}
		if rec.Flags&flagRMW != 0 {
			op.RMW = true
		}
		tr.Ops = append(tr.Ops, op)
	}
	return tr, nil
}

// Programs converts a trace into per-processor replay programs for
// engine.Machine.Run: each processor replays its stream, interleaving
// resolved by the simulated timing.
func (tr *Trace) Programs() []engine.Program {
	perCPU := make([][]Op, tr.CPUs)
	for _, op := range tr.Ops {
		perCPU[op.CPU] = append(perCPU[op.CPU], op)
	}
	progs := make([]engine.Program, tr.CPUs)
	for cpu := range progs {
		ops := perCPU[cpu]
		if len(ops) == 0 {
			continue
		}
		progs[cpu] = func(p *engine.Proc) {
			for _, op := range ops {
				if op.Compute > 0 {
					p.Compute(int(op.Compute))
				}
				p.SetSource(op.Source)
				switch {
				case op.RMW:
					p.RMW(op.Addr)
				case op.Kind == memory.Store:
					p.WriteN(op.Addr, op.Size)
				default:
					p.ReadN(op.Addr, op.Size)
				}
			}
		}
	}
	return progs
}
