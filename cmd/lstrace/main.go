// Command lstrace captures a workload's memory-reference trace and
// replays captured traces under any protocol — the trace-driven companion
// to the program-driven simulator.
//
// Usage:
//
//	lstrace -capture -workload mp3d -o mp3d.lstr
//	lstrace -replay mp3d.lstr -protocol LS
//	lstrace -info mp3d.lstr
package main

import (
	"flag"
	"fmt"
	"os"

	"lsnuma"
	"lsnuma/internal/cli"
	"lsnuma/internal/trace"
	"lsnuma/internal/workload"
	"lsnuma/internal/workload/cholesky"
	"lsnuma/internal/workload/lu"
	"lsnuma/internal/workload/mp3d"
	"lsnuma/internal/workload/oltp"
)

func main() {
	flags := cli.New(flag.CommandLine, "lstrace", []string{"check", "faults", "scheduler", "dirformat"})
	var (
		capture      = flag.Bool("capture", false, "capture a workload trace")
		replay       = flag.String("replay", "", "replay the given trace file")
		info         = flag.String("info", "", "print statistics about a trace file")
		workloadName = flag.String("workload", "mp3d", "workload to capture")
		protoName    = flag.String("protocol", "Baseline", "protocol for capture/replay")
		scaleName    = flag.String("scale", "test", "problem size for capture")
		out          = flag.String("o", "trace.lstr", "output trace file for capture")
	)
	flags.Parse(os.Args[1:])

	// config returns the validated machine configuration: the named
	// workload's (replay uses the default one) with the protocol and the
	// machine flags applied. The captured trace is the same under either
	// -scheduler.
	config := func(workloadName string) lsnuma.Config {
		cfg := flags.Apply(lsnuma.WorkloadConfig(workloadName))
		cfg.Protocol = lsnuma.Protocol(*protoName)
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		return cfg
	}
	switch {
	case *capture:
		doCapture(config(*workloadName), *workloadName, *protoName, *scaleName, *out)
	case *replay != "":
		doReplay(config(""), *replay, *protoName)
	case *info != "":
		doInfo(*info)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func newWorkload(name string, scale workload.Scale, cpus int) (workload.Workload, error) {
	switch name {
	case "mp3d":
		return mp3d.New(scale, cpus), nil
	case "cholesky":
		return cholesky.New(scale, cpus), nil
	case "lu":
		return lu.New(scale, cpus), nil
	case "oltp":
		return oltp.New(scale, cpus), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func doCapture(cfg lsnuma.Config, workloadName, protoName, scaleName, out string) {
	scale, err := workload.ParseScale(scaleName)
	if err != nil {
		fatal(err)
	}
	m, err := lsnuma.NewEngineMachine(cfg)
	if err != nil {
		fatal(err)
	}
	w, err := newWorkload(workloadName, scale, m.Nodes())
	if err != nil {
		fatal(err)
	}
	progs, err := w.Programs(m)
	if err != nil {
		fatal(err)
	}

	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, m.Nodes())
	if err != nil {
		fatal(err)
	}
	errFn := trace.Capture(m, tw)
	if err := m.Run(progs); err != nil {
		fatal(err)
	}
	if err := errFn(); err != nil {
		fatal(err)
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %d operations from %s (%s) into %s\n",
		tw.Len(), workloadName, protoName, out)
}

func doReplay(cfg lsnuma.Config, path, protoName string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	m, err := lsnuma.NewEngineMachine(cfg)
	if err != nil {
		fatal(err)
	}
	if err := m.Run(tr.Programs()); err != nil {
		fatal(err)
	}
	st := m.Stats()
	sum := st.Sum()
	fmt.Printf("replayed %d ops under %s: exec=%d busy=%d rstall=%d wstall=%d msgs=%d eliminated=%d\n",
		len(tr.Ops), protoName, st.ExecTime(), sum.Busy, sum.ReadStall, sum.WriteStall,
		st.TotalMsgs(), st.EliminatedOwnership)
}

func doInfo(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	var loads, stores, rmws uint64
	perCPU := make([]uint64, tr.CPUs)
	for _, op := range tr.Ops {
		perCPU[op.CPU]++
		switch {
		case op.RMW:
			rmws++
		case op.Kind == 1:
			stores++
		default:
			loads++
		}
	}
	fmt.Printf("%s: %d CPUs, %d ops (%d loads, %d stores, %d RMWs)\n",
		path, tr.CPUs, len(tr.Ops), loads, stores, rmws)
	for cpu, n := range perCPU {
		fmt.Printf("  cpu %d: %d ops\n", cpu, n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lstrace:", err)
	os.Exit(1)
}
