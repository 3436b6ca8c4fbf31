// Package cli is the flag table of the lsnuma command-line tools. Each
// row declares one flag once — name, usage, default and, for a machine
// flag, the lsnuma.Config field it sets — and each tool binds the rows
// it offers. Adding or removing a knob is one edit here. The package
// also holds what the rows drive: the standard runtime/pprof profilers
// and the tools' one-line fatal error.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"lsnuma"
	"lsnuma/internal/version"
	"lsnuma/internal/workload"
)

// Row groups, by flag name.
var (
	// Machine rows set lsnuma.Config fields (see Flags.Apply).
	Machine = []string{"check", "faults", "mshrs", "retry", "scheduler", "dirformat"}
	// Run rows bound a batch of simulations (see Flags.Context).
	Run = []string{"j", "timeout", "point-timeout"}
	// Cache rows select the persistent result cache (see Flags.OpenCache).
	Cache = []string{"cache", "cache-dir", "no-cache"}
	// Profile rows name the profiles to write (see Flags.StartProfiles).
	Profile = []string{"cpuprofile", "memprofile", "mutexprofile", "blockprofile"}
)

// Flags holds the values of one tool's rows.
type Flags struct {
	fs          *flag.FlagSet
	tool        string
	machine     lsnuma.Config // the machine rows' values
	machineRows []row         // the bound machine rows, which Apply copies
	version     bool
	scale       string // the -scale value, which Parse turns into Scale

	// The profile rows' output files ("" = off) and, once
	// StartProfiles has run, the function that writes them.
	cpuProfile, memProfile, mutexProfile, blockProfile string
	stopProfiles                                       func()

	Workload     string
	Scale        lsnuma.Scale
	Parallelism  int
	Timeout      time.Duration
	PointTimeout time.Duration
	Cache        bool
	CacheDir     string
	NoCache      bool
}

// row is one flag. A machine row stores into the lsnuma.Config field that
// field returns; any other row stores into the Flags field that value
// returns. The pointer's type (*string, *int, *bool or *time.Duration)
// picks the flag's kind, and its value when bound is the default.
type row struct {
	name, usage string
	field       func(*lsnuma.Config) any
	value       func(*Flags) any
}

var table = []row{
	{name: "check", usage: "online coherence invariant checking: off, touched, full",
		field: func(c *lsnuma.Config) any { return (*string)(&c.Check) }},
	{name: "faults", usage: "inject protocol/message faults: class[@arg][:seed],... (see lsnuma.Config.Faults)",
		field: func(c *lsnuma.Config) any { return &c.Faults }},
	{name: "mshrs", usage: "per-home directory transaction buffers (0 = unlimited)",
		field: func(c *lsnuma.Config) any { return &c.DirMSHRs }},
	{name: "retry", usage: "NACK/loss retry policy: max:N,base:C,cap:C,jitter:S (empty = retries off)",
		field: func(c *lsnuma.Config) any { return &c.Retry }},
	{name: "scheduler", usage: "scheduler: runahead (default) or serial (the reference: a scheduler step for every operation; slower)",
		field: func(c *lsnuma.Config) any { return &c.Scheduler }},
	{name: "dirformat", usage: "directory wire format: full (default), limited:i, or coarse:K",
		field: func(c *lsnuma.Config) any { return &c.DirFormat }},
	{name: "workload", usage: "workload: mp3d, cholesky, lu, oltp",
		value: func(f *Flags) any { return &f.Workload }},
	{name: "scale", usage: "problem size: test, small, paper",
		value: func(f *Flags) any { return &f.scale }},
	{name: "j", usage: "simulations to run concurrently (0 = all cores)",
		value: func(f *Flags) any { return &f.Parallelism }},
	{name: "timeout", usage: "abort the whole run after this long (0 = no limit)",
		value: func(f *Flags) any { return &f.Timeout }},
	{name: "point-timeout", usage: "abort any single point after this long; it becomes an annotated hole (0 = no limit)",
		value: func(f *Flags) any { return &f.PointTimeout }},
	{name: "cache", usage: "memoize point results in the persistent result cache (default dir " + lsnuma.DefaultCacheDir + ")",
		value: func(f *Flags) any { return &f.Cache }},
	{name: "cache-dir", usage: "result cache directory (implies -cache)",
		value: func(f *Flags) any { return &f.CacheDir }},
	{name: "no-cache", usage: "disable the result cache even if -cache/-cache-dir is given",
		value: func(f *Flags) any { return &f.NoCache }},
	{name: "cpuprofile", usage: "write a CPU profile to this file",
		value: func(f *Flags) any { return &f.cpuProfile }},
	{name: "memprofile", usage: "write a heap profile to this file on exit",
		value: func(f *Flags) any { return &f.memProfile }},
	{name: "mutexprofile", usage: "write a mutex-contention profile to this file on exit",
		value: func(f *Flags) any { return &f.mutexProfile }},
	{name: "blockprofile", usage: "write a goroutine-blocking profile to this file on exit",
		value: func(f *Flags) any { return &f.blockProfile }},
	{name: "version", usage: "print the build version and exit",
		value: func(f *Flags) any { return &f.version }},
}

// New binds -version and the rows of the given groups on fs, for the
// named tool.
func New(fs *flag.FlagSet, tool string, groups ...[]string) *Flags {
	f := &Flags{fs: fs, tool: tool, machine: lsnuma.Config{Check: lsnuma.CheckOff},
		Workload: "mp3d", scale: "test"}
	names := []string{"version"}
	for _, g := range groups {
		names = append(names, g...)
	}
	for _, name := range names {
		r := lookup(name)
		var p any
		if r.field != nil {
			p = r.field(&f.machine)
			f.machineRows = append(f.machineRows, r)
		} else {
			p = r.value(f)
		}
		switch p := p.(type) {
		case *string:
			fs.StringVar(p, r.name, *p, r.usage)
		case *int:
			fs.IntVar(p, r.name, *p, r.usage)
		case *bool:
			fs.BoolVar(p, r.name, *p, r.usage)
		case *time.Duration:
			fs.DurationVar(p, r.name, *p, r.usage)
		}
	}
	return f
}

func lookup(name string) row {
	for _, r := range table {
		if r.name == name {
			return r
		}
	}
	panic("cli: no flag row " + name)
}

// Parse parses args into the bound rows, exiting with status 2 on a bad
// flag (the flag set reports it), and handles -version: it prints the
// tool's build version and exits. A -scale that names no scale is fatal.
func (f *Flags) Parse(args []string) {
	if err := f.fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if f.version {
		fmt.Println(version.String(f.tool))
		os.Exit(0)
	}
	scale, err := workload.ParseScale(f.scale)
	if err != nil {
		f.Fatal(err)
	}
	f.Scale = scale
}

// Fatal writes the profiles (os.Exit skips deferred calls), prints err
// on stderr as one line prefixed with the tool's name, and exits with
// status 1.
func (f *Flags) Fatal(err error) {
	f.StopProfiles()
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.tool, err)
	os.Exit(1)
}

// StartProfiles starts the CPU profile and arms the mutex and block
// profilers, each when its row names a file; both sample every event,
// which is cheap at the scheduler's handoff rate. StopProfiles writes
// what was started. A CPU profile that cannot start is fatal.
func (f *Flags) StartProfiles() {
	var cpu *os.File
	if f.cpuProfile != "" {
		file, err := os.Create(f.cpuProfile)
		if err != nil {
			f.Fatal(fmt.Errorf("cpu profile: %w", err))
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			f.Fatal(fmt.Errorf("cpu profile: %w", err))
		}
		cpu = file
	}
	if f.mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if f.blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	f.stopProfiles = func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if f.memProfile != "" {
			runtime.GC() // materialize the final live set
			writeProfile("heap", f.memProfile)
		}
		writeProfile("mutex", f.mutexProfile)
		writeProfile("block", f.blockProfile)
	}
}

// StopProfiles ends the CPU profile and writes the heap, mutex and block
// profiles. It does nothing before StartProfiles or a second time.
func (f *Flags) StopProfiles() {
	if stop := f.stopProfiles; stop != nil {
		f.stopProfiles = nil
		stop()
	}
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

// Apply returns c with the bound machine rows' values set.
func (f *Flags) Apply(c lsnuma.Config) lsnuma.Config {
	for _, r := range f.machineRows {
		switch p := r.field(&c).(type) {
		case *string:
			*p = *r.field(&f.machine).(*string)
		case *int:
			*p = *r.field(&f.machine).(*int)
		}
	}
	return c
}

// Context returns the context a batch of simulations runs under:
// cancelled on SIGINT or SIGTERM and, with -timeout, once that long has
// passed. Call stop to release it.
func (f *Flags) Context() (ctx context.Context, stop context.CancelFunc) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f.Timeout <= 0 {
		return ctx, stopSignals
	}
	ctx, cancel := context.WithTimeout(ctx, f.Timeout)
	return ctx, func() { cancel(); stopSignals() }
}

// OpenCache opens the result cache the cache rows select: nil unless
// -cache or -cache-dir is given, and nil with -no-cache.
func (f *Flags) OpenCache() (*lsnuma.ResultCache, error) {
	if f.NoCache || (!f.Cache && f.CacheDir == "") {
		return nil, nil
	}
	return lsnuma.OpenResultCache(f.CacheDir)
}

// Options returns the run options of the run and cache rows, with the
// result cache opened.
func (f *Flags) Options() (lsnuma.RunOptions, error) {
	cache, err := f.OpenCache()
	return lsnuma.RunOptions{Parallelism: f.Parallelism, PointTimeout: f.PointTimeout, Cache: cache}, err
}
