// Package prof wires the standard runtime/pprof profilers into the
// command-line tools: a -cpuprofile flag captures where the simulator
// spends its time (the scheduler work behind the run-ahead optimization
// was found this way), a -memprofile flag captures heap allocations, and
// -mutexprofile/-blockprofile capture lock contention and blocking —
// the profiles that show the run-ahead scheduler's goroutine handoffs.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options names the profile outputs a tool wants; empty fields are off.
type Options struct {
	CPU   string // CPU profile file
	Mem   string // heap profile file, written on stop
	Mutex string // mutex-contention profile file, written on stop
	Block string // blocking (channel/select/lock wait) profile file, written on stop
}

// Flags registers -cpuprofile, -memprofile, -mutexprofile and
// -blockprofile on fs and returns the Options they fill.
func Flags(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.StringVar(&o.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.Mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.Mutex, "mutexprofile", "", "write a mutex-contention profile to this file on exit")
	fs.StringVar(&o.Block, "blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	return o
}

// Start begins CPU profiling (when requested) and arms the mutex and
// block profilers (when requested; both sample every event, which is
// cheap at the scheduler's handoff rate). It returns a stop function
// that ends the CPU profile and writes the heap, mutex and block
// profiles. The stop function is safe to call more than once, so tools
// can invoke it both from a defer and from their fatal path before
// os.Exit.
func Start(opts Options) (func(), error) {
	var cpu *os.File
	if opts.CPU != "" {
		f, err := os.Create(opts.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpu = f
	}
	if opts.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if opts.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if opts.Mem != "" {
			runtime.GC() // materialize the final live set
			writeProfile("heap", opts.Mem)
		}
		writeProfile("mutex", opts.Mutex)
		writeProfile("block", opts.Block)
	}, nil
}

// writeProfile dumps the named runtime profile to file; a "" file means
// the profile was not requested. Failures are reported, not fatal: the
// run itself already finished.
func writeProfile(name, file string) {
	if file == "" {
		return
	}
	f, err := os.Create(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
	}
}
