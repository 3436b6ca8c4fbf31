// Package workload defines the benchmark-program interface and shared
// helpers for the paper's four workloads: MP3D (SPLASH), Cholesky and LU
// (SPLASH-2), and the OLTP (TPC-B on MySQL/SparcLinux) workload, each
// reimplemented as a program-driven kernel with the sharing structure the
// paper's analysis depends on (see DESIGN.md for the substitution
// rationale).
//
// A Workload allocates its data structures in the machine's simulated
// address space and returns one program per processor. Programs are real
// Go code: control flow depends on computed values and simulated
// synchronization, so the memory-reference interleaving emerges from the
// modeled latencies, as in the paper's program-driven methodology.
package workload

import (
	"fmt"
	"math/rand"

	"lsnuma/internal/engine"
	"lsnuma/internal/memory"
)

// Workload is a benchmark that can be instantiated on a machine.
type Workload interface {
	// Name returns the benchmark name (e.g. "mp3d").
	Name() string
	// Programs allocates the workload's shared data on m and returns one
	// program per processor (len == m.Nodes()).
	Programs(m *engine.Machine) ([]engine.Program, error)
}

// Scale selects the workload problem size.
type Scale int

const (
	// ScaleTest is a reduced size for fast unit tests.
	ScaleTest Scale = iota
	// ScaleSmall is a mid-size configuration for benchmarks.
	ScaleSmall
	// ScalePaper approximates the paper's problem sizes.
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts "test", "small" or "paper".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "test":
		return ScaleTest, nil
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("workload: unknown scale %q", s)
	}
}

// Rand returns a deterministic RNG for workload construction.
func Rand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// --- typed views over the simulated address space ---
//
// Workloads keep their real data in Go slices and mirror every element
// access with a simulated memory access at the matching address, so cache
// and sharing behaviour follow the actual algorithm.

// F64 is a shared array of float64 (8 bytes / 2 machine words each).
type F64 struct {
	base memory.Addr
	vals []float64
}

// NewF64 allocates n float64s under the given region name.
func NewF64(a *memory.Allocator, name string, n int) *F64 {
	return &F64{base: a.Alloc(name, uint64(n)*8, 8), vals: make([]float64, n)}
}

// Addr returns the simulated address of element i.
func (x *F64) Addr(i int) memory.Addr { return x.base + memory.Addr(i*8) }

// Len returns the number of elements.
func (x *F64) Len() int { return len(x.vals) }

// Get loads element i.
func (x *F64) Get(p *engine.Proc, i int) float64 {
	p.ReadN(x.Addr(i), 8)
	return x.vals[i]
}

// Set stores element i.
func (x *F64) Set(p *engine.Proc, i int, v float64) {
	p.WriteN(x.Addr(i), 8)
	x.vals[i] = v
}

// Update performs a read-modify-write of element i (two accesses: the
// load-store pattern). The load carries an exclusive-read annotation: a
// compiler's dataflow analysis would trivially mark this load as followed
// by a store to the same address, so machines configured with the static
// EX technique combine it with the ownership acquisition.
func (x *F64) Update(p *engine.Proc, i int, f func(float64) float64) {
	p.ReadExN(x.Addr(i), 8)
	v := x.vals[i]
	x.Set(p, i, f(v))
}

// Peek returns the value without a simulated access (host-side checks).
func (x *F64) Peek(i int) float64 { return x.vals[i] }

// Poke sets the value without a simulated access (initialization before
// the run; cold misses still occur because caches start empty).
func (x *F64) Poke(i int, v float64) { x.vals[i] = v }

// I32 is a shared array of int32 (one machine word each).
type I32 struct {
	base memory.Addr
	vals []int32
}

// NewI32 allocates n int32s under the given region name.
func NewI32(a *memory.Allocator, name string, n int) *I32 {
	return &I32{base: a.Alloc(name, uint64(n)*4, 4), vals: make([]int32, n)}
}

// Addr returns the simulated address of element i.
func (x *I32) Addr(i int) memory.Addr { return x.base + memory.Addr(i*4) }

// Len returns the number of elements.
func (x *I32) Len() int { return len(x.vals) }

// Get loads element i.
func (x *I32) Get(p *engine.Proc, i int) int32 {
	p.Read(x.Addr(i))
	return x.vals[i]
}

// Set stores element i.
func (x *I32) Set(p *engine.Proc, i int, v int32) {
	p.Write(x.Addr(i))
	x.vals[i] = v
}

// Add atomically adds delta to element i (an RMW: one load-store
// sequence) and returns the new value.
func (x *I32) Add(p *engine.Proc, i int, delta int32) int32 {
	p.RMW(x.Addr(i))
	x.vals[i] += delta
	return x.vals[i]
}

// Peek returns the value without a simulated access.
func (x *I32) Peek(i int) int32 { return x.vals[i] }

// Poke sets the value without a simulated access.
func (x *I32) Poke(i int, v int32) { x.vals[i] = v }

// Record is a view over an array of fixed-size records (structs) in
// simulated memory; fields are addressed by byte offset. It lets workloads
// express "read the particle, update three fields" with the right number
// and placement of memory accesses.
type Record struct {
	base  memory.Addr
	size  uint64
	count int
}

// NewRecords allocates count records of size bytes each, aligned to align
// (0 for word alignment).
func NewRecords(a *memory.Allocator, name string, count int, size, align uint64) *Record {
	return &Record{base: a.Alloc(name, uint64(count)*size, align), size: size, count: count}
}

// Addr returns the address of record i's field at byte offset off.
func (r *Record) Addr(i int, off uint64) memory.Addr {
	return r.base + memory.Addr(uint64(i)*r.size+off)
}

// Count returns the number of records.
func (r *Record) Count() int { return r.count }

// Size returns the record size in bytes.
func (r *Record) Size() uint64 { return r.size }

// ReadField loads n bytes of record i at offset off.
func (r *Record) ReadField(p *engine.Proc, i int, off uint64, n uint32) {
	p.ReadN(r.Addr(i, off), n)
}

// WriteField stores n bytes of record i at offset off.
func (r *Record) WriteField(p *engine.Proc, i int, off uint64, n uint32) {
	p.WriteN(r.Addr(i, off), n)
}
