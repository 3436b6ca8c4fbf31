// Package cli is the flag table of the lsnuma command-line tools. Each
// row declares one flag once — name, usage, default and, for a machine
// flag, the lsnuma.Config field it sets — and each tool binds the rows
// it offers. Adding or removing a knob is one edit here.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lsnuma"
	"lsnuma/internal/version"
)

// Row groups, by flag name.
var (
	// Machine rows set lsnuma.Config fields (see Flags.Apply).
	Machine = []string{"check", "faults", "mshrs", "retry", "scheduler", "dirformat"}
	// Run rows bound a batch of simulations (see Flags.Context).
	Run = []string{"j", "timeout", "point-timeout"}
	// Cache rows select the persistent result cache (see Flags.OpenCache).
	Cache = []string{"cache", "cache-dir", "no-cache"}
)

// Flags holds the values of one tool's rows.
type Flags struct {
	fs          *flag.FlagSet
	tool        string
	machine     lsnuma.Config // the machine rows' values
	machineRows []row         // the bound machine rows, which Apply copies
	version     bool

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
	{name: "scheduler", usage: "scheduler: runahead (default) or serial (the per-access reference; slower)",
		field: func(c *lsnuma.Config) any { return &c.Scheduler }},
	{name: "dirformat", usage: "directory wire format: full (default), limited:i, or coarse:K",
		field: func(c *lsnuma.Config) any { return &c.DirFormat }},
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
	{name: "version", usage: "print the build version and exit",
		value: func(f *Flags) any { return &f.version }},
}

// New binds -version and the rows of the given groups on fs, for the
// named tool.
func New(fs *flag.FlagSet, tool string, groups ...[]string) *Flags {
	f := &Flags{fs: fs, tool: tool, machine: lsnuma.Config{Check: lsnuma.CheckOff}}
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
// tool's build version and exits.
func (f *Flags) Parse(args []string) {
	if err := f.fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if f.version {
		fmt.Println(version.String(f.tool))
		os.Exit(0)
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
