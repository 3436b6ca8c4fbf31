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
	"lsnuma/internal/engine"
	"lsnuma/internal/trace"
	"lsnuma/internal/version"
	"lsnuma/internal/workload"
	"lsnuma/internal/workload/cholesky"
	"lsnuma/internal/workload/lu"
	"lsnuma/internal/workload/mp3d"
	"lsnuma/internal/workload/oltp"
)

func main() {
	var (
		capture      = flag.Bool("capture", false, "capture a workload trace")
		replay       = flag.String("replay", "", "replay the given trace file")
		info         = flag.String("info", "", "print statistics about a trace file")
		workloadName = flag.String("workload", "mp3d", "workload to capture")
		protoName    = flag.String("protocol", "Baseline", "protocol for capture/replay")
		scaleName    = flag.String("scale", "test", "problem size for capture")
		out          = flag.String("o", "trace.lstr", "output trace file for capture")
		showVersion  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.StringVar(&checkFlag, "check", "off", "online coherence invariant checking: off, touched, full")
	flag.StringVar(&faultsFlag, "faults", "", "inject a protocol fault: class[@afterOp][:seed]")
	flag.StringVar(&schedFlag, "scheduler", "", "scheduler for replay: runahead (default) or serial (capture always records serially)")
	flag.StringVar(&dirfmtFlag, "dirformat", "", "directory wire format: full (default), limited:i, or coarse:K")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lstrace"))
		return
	}

	switch {
	case *capture:
		doCapture(*workloadName, *protoName, *scaleName, *out)
	case *replay != "":
		doReplay(*replay, *protoName)
	case *info != "":
		doInfo(*info)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// checkFlag / faultsFlag / schedFlag are the robustness and scheduler
// knobs shared by capture and replay (see lsnuma.Config.Check /
// Config.Faults / Config.Scheduler). Capture itself always runs
// serially — the recorder hook forces the serial scheduler — but replay
// honours the scheduler selection.
var (
	checkFlag  string
	faultsFlag string
	schedFlag  string
	dirfmtFlag string
)

// buildMachine lowers a public config to an engine machine (trace capture
// needs direct engine access for the recorder hook).
func buildMachine(workloadName, protoName string) (*engine.Machine, error) {
	cfg := lsnuma.DefaultConfig()
	if workloadName == "oltp" {
		cfg = lsnuma.OLTPConfig()
	}
	cfg.Protocol = lsnuma.Protocol(protoName)
	check, err := lsnuma.ParseCheckLevel(checkFlag)
	if err != nil {
		return nil, err
	}
	cfg.Check = check
	cfg.Faults = faultsFlag
	cfg.Scheduler = schedFlag
	cfg.DirFormat = dirfmtFlag
	return lsnuma.NewEngineMachine(cfg)
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

func doCapture(workloadName, protoName, scaleName, out string) {
	scale, err := workload.ParseScale(scaleName)
	if err != nil {
		fatal(err)
	}
	m, err := buildMachine(workloadName, protoName)
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

func doReplay(path, protoName string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	m, err := buildMachine("", protoName)
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
