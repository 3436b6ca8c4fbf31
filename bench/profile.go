package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers are the host-time buckets of a traced run, named after the
// repository's modules. Every profile sample lands in exactly one.
var layers = []string{
	"lsnuma", "engine", "engine.handoff", "cache", "directory", "protocol",
	"network", "classify", "check", "fault", "memory", "stats", "workload",
	"runner", "resultcache", "report", "server", "journal", "main", "gc",
	"runtime",
}

// gcRoots mark a sample as garbage-collector work wherever they appear.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
}

// handoffFuncs are runtime channel and scheduler functions. A sample whose
// frames below the innermost engine frame include one of them is the
// engine handing the simulation between goroutines, not simulating.
var handoffFuncs = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true,
	"runtime.chanrecv": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.selectgo": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.wakep": true, "runtime.casgstatus": true,
	"runtime.futex": true, "runtime.mcall": true, "runtime.park_m": true,
	"runtime.schedule": true, "runtime.findRunnable": true,
	"runtime.notewakeup": true, "runtime.notesleep": true,
	"runtime.runqput": true, "runtime.runqget": true,
	"runtime.Gosched": true, "runtime.goschedImpl": true,
	"runtime.send": true, "runtime.recv": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.execute": true,
}

// funcPackage returns the import path of a pprof function name such as
// "lsnuma/internal/engine.(*Machine).Run" or "lsnuma.runMachine".
func funcPackage(fn string) string {
	prefix := fn
	if i := strings.IndexAny(prefix, "(["); i >= 0 {
		prefix = prefix[:i]
	}
	slash := strings.LastIndexByte(prefix, '/')
	dot := strings.IndexByte(prefix[slash+1:], '.')
	if dot < 0 {
		return prefix
	}
	return prefix[:slash+1+dot]
}

// repoLayer maps a package of this repository to its layer; ok is false
// for packages from elsewhere (the standard library, the runtime).
func repoLayer(pkg string) (string, bool) {
	switch {
	case pkg == "main":
		return "main", true
	case pkg == "lsnuma":
		return "lsnuma", true
	case pkg == "lsnuma/internal/server/journal":
		return "journal", true
	case strings.HasPrefix(pkg, "lsnuma/internal/workload"):
		return "workload", true
	case strings.HasPrefix(pkg, "lsnuma/internal/"):
		name := strings.TrimPrefix(pkg, "lsnuma/internal/")
		name, _, _ = strings.Cut(name, "/")
		for _, l := range layers {
			if l == name {
				return l, true
			}
		}
		return "lsnuma", true // small helper packages (prof, trace, version)
	}
	return "", false
}

// parkRoots are the outermost frames of scheduler work that has lost its
// goroutine's stack: a goroutine parked or was preempted and the runtime
// switched to the scheduler on the system stack.
var parkRoots = map[string]bool{"runtime.mcall": true, "runtime.morestack": true}

// classify assigns one sample's stack (innermost frame first) to a layer:
// garbage collection wherever it appears, otherwise the innermost frame
// from this repository, with engine samples spent in a channel or
// scheduler function split out as engine.handoff. Of the samples with no
// repository frame, scheduler work after a park goes to parkLayer and the
// daemon's HTTP connection loop to server; the rest is runtime.
func classify(frames []string, parkLayer string) string {
	for _, f := range frames {
		if gcRoots[f] {
			return "gc"
		}
	}
	for i, f := range frames {
		l, ok := repoLayer(funcPackage(f))
		if !ok {
			continue
		}
		if l == "engine" {
			for _, inner := range frames[:i] {
				if handoffFuncs[inner] {
					return "engine.handoff"
				}
			}
		}
		return l
	}
	switch root := frames[len(frames)-1]; {
	case parkRoots[root]:
		return parkLayer
	case root == "net/http.(*conn).serve":
		return "server"
	}
	return "runtime"
}

// bucketTraces reads the text of `go tool pprof -traces` and returns the
// sampled time per layer (see classify for parkLayer).
func bucketTraces(r io.Reader, parkLayer string) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var (
		frames []string
		value  time.Duration
		inRec  bool
	)
	flush := func() {
		if inRec && len(frames) > 0 {
			out[classify(frames, parkLayer)] += value
		}
		frames, value, inRec = frames[:0], 0, false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inRec = true
			continue
		}
		// Stack lines are "%10s   %s": a value (first frame only) right-
		// aligned in ten columns, three spaces, the function. Header and
		// label lines ("%10s:  %s") do not have that shape.
		if !inRec || len(line) < 14 || line[10:13] != "   " {
			continue
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", v)
			}
			value = d
		}
		frames = append(frames, strings.TrimSuffix(line[13:], " (inline)"))
	}
	flush()
	return out, sc.Err()
}

// profileLayers buckets the CPU profiles of one binary into layers with
// the toolchain's pprof. parkLayer takes the scheduler work that follows
// a goroutine park (see classify): in lssim and lsreport goroutines park
// almost only to hand the simulation between processors, so it is
// engine.handoff there; in lsnumad parks also come from HTTP and job
// dispatch, so it stays runtime.
func profileLayers(bin string, profiles []string, parkLayer string) (map[string]time.Duration, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("no profiles to bucket")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", bin}, profiles...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return bucketTraces(&stdout, parkLayer)
}

// layerMetrics turns bucketed time into each layer's share of samples.
func layerMetrics(buckets map[string]time.Duration, into map[string]metric) {
	var total time.Duration
	for _, d := range buckets {
		total += d
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(buckets[l]) / float64(total)
		}
		into["cpu."+l] = metric{Value: share, Unit: "%"}
	}
	into["trace.samples"] = metric{Value: float64(total / (10 * time.Millisecond)), Unit: "count"}
}
