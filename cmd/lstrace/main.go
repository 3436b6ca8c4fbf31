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
	"lsnuma/internal/memory"
	"lsnuma/internal/trace"
)

func main() {
	flags := cli.New(flag.CommandLine, "lstrace", []string{"check", "faults", "scheduler", "dirformat", "workload", "scale"})
	var (
		capture   = flag.Bool("capture", false, "capture a workload trace")
		replay    = flag.String("replay", "", "replay the given trace file")
		info      = flag.String("info", "", "print statistics about a trace file")
		protoName = flag.String("protocol", "Baseline", "protocol for capture/replay")
		out       = flag.String("o", "trace.lstr", "output trace file for capture")
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
			flags.Fatal(err)
		}
		return cfg
	}
	var err error
	switch {
	case *capture:
		err = doCapture(config(flags.Workload), flags.Workload, *protoName, flags.Scale, *out)
	case *replay != "":
		err = doReplay(config(""), *replay, *protoName)
	case *info != "":
		err = doInfo(*info)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		flags.Fatal(err)
	}
}

func doCapture(cfg lsnuma.Config, workloadName, protoName string, scale lsnuma.Scale, out string) error {
	m, err := lsnuma.NewEngineMachine(cfg)
	if err != nil {
		return err
	}
	w, err := lsnuma.NewWorkload(workloadName, scale, m.Nodes())
	if err != nil {
		return err
	}
	progs, err := w.Programs(m)
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, m.Nodes())
	if err != nil {
		return err
	}
	errFn := trace.Capture(m, tw)
	if err := m.Run(progs); err != nil {
		return err
	}
	if err := errFn(); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("captured %d operations from %s (%s) into %s\n",
		tw.Len(), workloadName, protoName, out)
	return nil
}

func doReplay(cfg lsnuma.Config, path, protoName string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	m, err := lsnuma.NewEngineMachine(cfg)
	if err != nil {
		return err
	}
	if err := m.Run(tr.Programs()); err != nil {
		return err
	}
	st := m.Stats()
	sum := st.Sum()
	fmt.Printf("replayed %d ops under %s: exec=%d busy=%d rstall=%d wstall=%d msgs=%d eliminated=%d\n",
		len(tr.Ops), protoName, st.ExecTime(), sum.Busy, sum.ReadStall, sum.WriteStall,
		st.TotalMsgs(), st.EliminatedOwnership)
	return nil
}

func doInfo(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	var loads, stores, rmws uint64
	perCPU := make([]uint64, tr.CPUs)
	for _, op := range tr.Ops {
		perCPU[op.CPU]++
		switch {
		case op.RMW:
			rmws++
		case op.Kind == memory.Store:
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
	return nil
}
